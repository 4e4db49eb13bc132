package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// fileVersion guards the on-disk record format: 1 was one JSON line per
// record with a base64 value, 2 is the framed format below.
const fileVersion = 2

// compactMinRecords is how many log appends a namespace accumulates before
// compaction is even considered; beyond it, a log holding more than twice
// its live record count is rewritten as a snapshot.
const compactMinRecords = 256

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fileHeader is the first line of every log and snapshot file.
type fileHeader struct {
	Version int    `json:"persist"`
	NS      string `json:"ns"`
}

// loc is where a live value sits: its offset and length in the snapshot or
// the log of its namespace, and the CRC-32C it must still match.
type loc struct {
	snap bool // in the snapshot file (else the log)
	off  int64
	n    int
	crc  uint32
}

// fsNamespace is the in-memory index of one namespace: where each live
// value sits, plus the open handles of its files.
type fsNamespace struct {
	log      *os.File // append handle, read with ReadAt too
	size     int64    // bytes in the log
	snap     *os.File // nil until the namespace has a snapshot
	live     map[string]loc
	appended int // log records since the last compaction
}

func (sp *fsNamespace) file(l loc) *os.File {
	if l.snap {
		return sp.snap
	}
	return sp.log
}

func (sp *fsNamespace) close() {
	for _, f := range []*os.File{sp.log, sp.snap} {
		if f != nil {
			f.Close() //nolint:errcheck // read handles or already-synced logs
		}
	}
	sp.log, sp.snap = nil, nil
}

// fsStore is the filesystem implementation: per namespace an append-only
// record log (<ns>.log) and a compacted snapshot (<ns>.snap), both framed
// records behind a schema-version header line.
type fsStore struct {
	mu     sync.Mutex
	dir    string
	spaces map[string]*fsNamespace
	stats  Stats
}

// Open opens (or initializes) a filesystem store rooted at dir, replaying
// every namespace found there: snapshot first, then the log. Replay reads
// frame headers only and checks them; a value's bytes are read, and its
// CRC checked, only when Get, Load or a compaction reads it. Only once
// every file has replayed does Open touch the directory — removing
// compaction leftovers and cutting a torn final log record — so a
// directory it refuses (one of another schema version, or with a damaged
// frame header) is left byte for byte as it was.
func Open(dir string) (Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	st := &fsStore{dir: dir, spaces: map[string]*fsNamespace{}, stats: Stats{Backend: "fs"}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	names := map[string]bool{}
	var leftovers []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// Leftover of a compaction that never reached its rename —
			// the pre-crash files are still authoritative.
			leftovers = append(leftovers, name)
		case strings.HasSuffix(name, ".log"):
			names[strings.TrimSuffix(name, ".log")] = true
		case strings.HasSuffix(name, ".snap"):
			names[strings.TrimSuffix(name, ".snap")] = true
		}
	}
	valid := map[string]int64{}
	for ns := range names {
		if validNS(ns) != nil {
			continue // foreign file; leave it alone
		}
		sp, logSize, err := st.replayNamespace(ns)
		if err != nil {
			st.Close() //nolint:errcheck
			return nil, err
		}
		st.spaces[ns], valid[ns] = sp, logSize
	}
	for _, name := range leftovers {
		os.Remove(filepath.Join(dir, name)) //nolint:errcheck
	}
	for ns, sp := range st.spaces {
		if err := st.reopenLog(ns, sp, valid[ns]); err != nil {
			st.Close() //nolint:errcheck
			return nil, err
		}
	}
	return st, nil
}

func (st *fsStore) logPath(ns string) string  { return filepath.Join(st.dir, ns+".log") }
func (st *fsStore) snapPath(ns string) string { return filepath.Join(st.dir, ns+".snap") }

// replayNamespace indexes the snapshot and the log of ns without writing
// anything. It returns the byte extent of the log's complete frames (-1 when
// there is no log), which reopenLog cuts the log to.
func (st *fsStore) replayNamespace(ns string) (*fsNamespace, int64, error) {
	sp := &fsNamespace{live: map[string]loc{}}
	if f, err := os.Open(st.snapPath(ns)); err == nil {
		sp.snap = f
		if _, _, err := replayFile(f, st.snapPath(ns), ns, true, sp.live); err != nil {
			sp.close()
			return nil, 0, err
		}
	} else if !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	f, err := os.OpenFile(st.logPath(ns), os.O_RDWR|os.O_APPEND, 0o644)
	if os.IsNotExist(err) {
		return sp, -1, nil
	}
	if err != nil {
		sp.close()
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	sp.log = f
	valid, records, err := replayFile(f, st.logPath(ns), ns, false, sp.live)
	if err != nil {
		sp.close()
		return nil, 0, err
	}
	sp.appended = records
	return sp, valid, nil
}

// reopenLog readies the log of a replayed namespace for appends: it cuts a
// frame torn by a crash mid-write (or the first append would follow the
// torn bytes and be lost with them), or starts a fresh log when there is
// none.
func (st *fsStore) reopenLog(ns string, sp *fsNamespace, valid int64) error {
	if sp.log == nil {
		f, size, err := st.freshLog(ns)
		if err != nil {
			return err
		}
		sp.log, sp.size = f, size
		return nil
	}
	if err := sp.log.Truncate(valid); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	sp.size = valid
	return nil
}

// freshLog creates <ns>.log containing only the header, atomically via a
// tmp file so a crash can never leave a header-less log behind.
func (st *fsStore) freshLog(ns string) (*os.File, int64, error) {
	tmp := st.logPath(ns) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	header := headerLine(ns)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, st.logPath(ns)); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	st.syncDir()
	return f, int64(len(header)), nil
}

func headerLine(ns string) []byte {
	line, _ := json.Marshal(fileHeader{Version: fileVersion, NS: ns}) // cannot fail
	return append(line, '\n')
}

// appendFrame appends the frame of one record to buf. A frame is one
// record after the file header:
//
//	<hcrc> <op> <vlen> <vcrc> <key>\n<value>\n
//
// op is "put", "del" (remove key) or "delprefix" (remove every key with
// prefix key); key is strconv.Quote'd; vlen is the value's byte length (0
// for the deletes); vcrc and hcrc are 8 hex digits of CRC-32C, vcrc (given)
// over the value and hcrc over the header line after "<hcrc> " up to its
// newline. The header CRC is checked before the length is trusted, so a
// damaged length is corruption, never a tail that looks torn.
func appendFrame(buf []byte, op, key string, value []byte, vcrc uint32) []byte {
	buf = appendFrameHeader(buf, op, key, len(value), vcrc)
	buf = append(buf, value...)
	return append(buf, '\n')
}

// appendFrameHeader appends the header line of a frame whose value is vlen
// bytes long.
func appendFrameHeader(buf []byte, op, key string, vlen int, vcrc uint32) []byte {
	header := fmt.Appendf(nil, "%s %d %08x %s", op, vlen, vcrc, strconv.Quote(key))
	return fmt.Appendf(buf, "%08x %s\n", crc32.Checksum(header, castagnoli), header)
}

// frameHeader is a parsed frame header line.
type frameHeader struct {
	op, key string
	vlen    int
	vcrc    uint32
}

// parseFrameHeader checks and splits a header line (without its newline).
func parseFrameHeader(line []byte) (frameHeader, error) {
	var h frameHeader
	if len(line) < 9 || line[8] != ' ' {
		return h, errors.New("short frame header")
	}
	hcrc, ok := parseHex8(line[:8])
	if !ok || hcrc != crc32.Checksum(line[9:], castagnoli) {
		return h, errors.New("frame header checksum mismatch")
	}
	fields := bytes.SplitN(line[9:], []byte{' '}, 4)
	if len(fields) != 4 {
		return h, errors.New("frame header has too few fields")
	}
	h.op = string(fields[0])
	n, err := strconv.Atoi(string(fields[1]))
	if err != nil || n < 0 {
		return h, fmt.Errorf("bad value length %q", fields[1])
	}
	h.vlen = n
	if h.vcrc, ok = parseHex8(fields[2]); !ok {
		return h, fmt.Errorf("bad value checksum %q", fields[2])
	}
	if h.key, err = strconv.Unquote(string(fields[3])); err != nil {
		return h, fmt.Errorf("bad key %s", fields[3])
	}
	switch h.op {
	case "put":
	case "del", "delprefix":
		if h.vlen != 0 || h.vcrc != 0 {
			return h, fmt.Errorf("%s frame carries a value", h.op)
		}
	default:
		return h, fmt.Errorf("unknown op %q", h.op)
	}
	return h, nil
}

// parseHex8 parses exactly 8 lowercase hex digits, the only spelling
// appendFrame writes: a CRC spelled any other way is damage.
func parseHex8(b []byte) (uint32, bool) {
	if len(b) != 8 {
		return 0, false
	}
	var v uint32
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// readHeader reads and checks the version header line of one file.
func readHeader(br *bufio.Reader, path, ns string) (int64, error) {
	line, err := br.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return 0, fmt.Errorf("persist: %s: %w", path, err)
	}
	var h fileHeader
	if err != nil || json.Unmarshal(line, &h) != nil || h.Version == 0 {
		return 0, fmt.Errorf("persist: %s: missing header line", path)
	}
	if h.Version != fileVersion {
		return 0, fmt.Errorf("persist: %s: schema version %d, but this build reads only version %d; start on an empty -state-dir",
			path, h.Version, fileVersion)
	}
	if h.NS != ns {
		return 0, fmt.Errorf("persist: %s: header names namespace %q", path, h.NS)
	}
	return int64(len(line)), nil
}

// replayFile indexes every complete frame of one file into live. It reads
// frame headers only: it checks each header's CRC and fields, that the
// value and the newline after it are all there, and that the newline is
// one, but skips the value unread — its CRC is checked where the value is
// read (readValue). A final frame cut short — the signature of a crash
// mid-write — is dropped; a complete frame whose header or terminator
// fails a check is corruption. It returns the byte extent of the complete
// frames and their count.
func replayFile(f *os.File, path, ns string, snap bool, live map[string]loc) (int64, int, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("persist: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	offset, err := readHeader(br, path, ns)
	if err != nil {
		return 0, 0, err
	}
	records := 0
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			break // clean end, or a header line cut short
		}
		if err != nil {
			return 0, 0, fmt.Errorf("persist: %s: %w", path, err)
		}
		h, err := parseFrameHeader(line[:len(line)-1])
		if err != nil {
			return 0, 0, fmt.Errorf("persist: %s corrupt at offset %d: %v", path, offset, err)
		}
		valueOff := offset + int64(len(line))
		end := valueOff + int64(h.vlen) // where the frame's newline belongs
		if end >= fi.Size() {
			break // the value or its newline is cut short
		}
		nl, err := skipValue(f, br, h.vlen, end)
		if err != nil {
			return 0, 0, fmt.Errorf("persist: %s: %w", path, err)
		}
		if nl != '\n' {
			return 0, 0, fmt.Errorf("persist: %s corrupt at offset %d: frame not newline-terminated", path, offset)
		}
		switch h.op {
		case "put":
			live[h.key] = loc{snap: snap, off: valueOff, n: h.vlen, crc: h.vcrc}
		case "del":
			delete(live, h.key)
		case "delprefix":
			deletePrefix(live, h.key)
		}
		records++
		offset = end + 1
	}
	return offset, records, nil
}

// skipValue moves br past the next n bytes, a value whose newline sits at
// file offset end, and returns the byte at end. A value already buffered is
// discarded; a longer one is seeked over, so its bytes are never read.
func skipValue(f *os.File, br *bufio.Reader, n int, end int64) (byte, error) {
	if n < br.Buffered() {
		br.Discard(n) //nolint:errcheck // the bytes are buffered
	} else {
		if _, err := f.Seek(end, io.SeekStart); err != nil {
			return 0, err
		}
		br.Reset(f)
	}
	return br.ReadByte()
}

func deletePrefix(live map[string]loc, prefix string) {
	for k := range live {
		if strings.HasPrefix(k, prefix) {
			delete(live, k)
		}
	}
}

// readValue reads a live value back and checks it against its CRC.
func (st *fsStore) readValue(ns string, sp *fsNamespace, key string, l loc) ([]byte, error) {
	v := make([]byte, l.n)
	if _, err := sp.file(l).ReadAt(v, l.off); err != nil {
		return nil, fmt.Errorf("persist: %s/%s: %w", ns, key, err)
	}
	if crc32.Checksum(v, castagnoli) != l.crc {
		return nil, fmt.Errorf("persist: %s/%s: value checksum mismatch", ns, key)
	}
	return v, nil
}

// space returns the namespace, creating its log on first use when create
// is set. Callers hold st.mu.
func (st *fsStore) space(ns string, create bool) (*fsNamespace, error) {
	if err := validNS(ns); err != nil {
		return nil, err
	}
	sp, ok := st.spaces[ns]
	if ok || !create {
		return sp, nil
	}
	f, size, err := st.freshLog(ns)
	if err != nil {
		return nil, err
	}
	sp = &fsNamespace{log: f, size: size, live: map[string]loc{}}
	st.spaces[ns] = sp
	return sp, nil
}

// appendRecord writes one frame to the namespace log in a single write
// call and returns where its value landed. A failed write is cut off again
// so a partial frame cannot swallow the next one.
func (st *fsStore) appendRecord(sp *fsNamespace, op, key string, value []byte) (loc, error) {
	l := loc{n: len(value), crc: crc32.Checksum(value, castagnoli)}
	frame := appendFrame(make([]byte, 0, len(key)+len(value)+64), op, key, value, l.crc)
	if _, err := sp.log.Write(frame); err != nil {
		sp.log.Truncate(sp.size) //nolint:errcheck // best effort; replay cuts it otherwise
		return loc{}, fmt.Errorf("persist: %w", err)
	}
	l.off = sp.size + int64(len(frame)-len(value)-1)
	sp.size += int64(len(frame))
	sp.appended++
	return l, nil
}

func (st *fsStore) put(ns, key string, value []byte, durable bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp, err := st.space(ns, true)
	if err != nil {
		return err
	}
	l, err := st.appendRecord(sp, "put", key, value)
	if err != nil {
		return err
	}
	sp.live[key] = l
	st.stats.Puts++
	if durable {
		if err := sp.log.Sync(); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
		st.stats.Syncs++
	}
	return st.maybeCompactLocked(ns, sp)
}

func (st *fsStore) Put(ns, key string, value []byte) error {
	return st.put(ns, key, value, false)
}

func (st *fsStore) PutDurable(ns, key string, value []byte) error {
	return st.put(ns, key, value, true)
}

func (st *fsStore) Delete(ns, key string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp, err := st.space(ns, false)
	if err != nil || sp == nil {
		return err
	}
	if _, ok := sp.live[key]; !ok {
		return nil
	}
	if _, err := st.appendRecord(sp, "del", key, nil); err != nil {
		return err
	}
	delete(sp.live, key)
	st.stats.Deletes++
	return st.maybeCompactLocked(ns, sp)
}

func (st *fsStore) DeletePrefix(ns, prefix string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp, err := st.space(ns, false)
	if err != nil || sp == nil {
		return err
	}
	any := false
	for k := range sp.live {
		if strings.HasPrefix(k, prefix) {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	if _, err := st.appendRecord(sp, "delprefix", prefix, nil); err != nil {
		return err
	}
	deletePrefix(sp.live, prefix)
	st.stats.Deletes++
	return st.maybeCompactLocked(ns, sp)
}

func (st *fsStore) Get(ns, key string) ([]byte, bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp, err := st.space(ns, false)
	if err != nil || sp == nil {
		return nil, false, err
	}
	l, ok := sp.live[key]
	if !ok {
		return nil, false, nil
	}
	v, err := st.readValue(ns, sp, key, l)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

func (st *fsStore) Keys(ns string) ([]string, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp, err := st.space(ns, false)
	if err != nil || sp == nil {
		return nil, err
	}
	return slices.Sorted(maps.Keys(sp.live)), nil
}

func (st *fsStore) Load(ns string) (map[string][]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp, err := st.space(ns, false)
	if err != nil || sp == nil {
		return map[string][]byte{}, err
	}
	out := make(map[string][]byte, len(sp.live))
	for k, l := range sp.live {
		v, err := st.readValue(ns, sp, k, l)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// maybeCompactLocked compacts once the log has accumulated well more
// records than the namespace holds live — the point where replay cost and
// file size are dominated by overwritten history.
func (st *fsStore) maybeCompactLocked(ns string, sp *fsNamespace) error {
	if sp.appended < compactMinRecords || sp.appended < 2*len(sp.live)+16 {
		return nil
	}
	return st.compactLocked(ns, sp)
}

func (st *fsStore) Compact(ns string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp, err := st.space(ns, false)
	if err != nil || sp == nil {
		return err
	}
	return st.compactLocked(ns, sp)
}

// compactLocked rewrites the namespace: the frames of the live records are
// copied into a fresh snapshot (written to a tmp file, synced, renamed),
// then the log is atomically replaced by a header-only file. Each value is
// copied unread, byte for byte, under the CRC recorded for it, so a damaged
// value neither blocks compaction nor gets a fresh CRC that would hide the
// damage: it keeps failing every read. A crash between the two renames
// replays the old log over the new snapshot — puts are upserts and deletes
// idempotent, so that replay is harmless.
func (st *fsStore) compactLocked(ns string, sp *fsNamespace) error {
	snapTmp := st.snapPath(ns) + ".tmp"
	f, err := os.Create(snapTmp)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(snapTmp) //nolint:errcheck
		return fmt.Errorf("persist: %w", err)
	}
	w := bufio.NewWriter(f)
	header := headerLine(ns)
	w.Write(header) //nolint:errcheck // the Flush below reports write errors
	offset := int64(len(header))
	live := make(map[string]loc, len(sp.live))
	var frame []byte
	for _, k := range slices.Sorted(maps.Keys(sp.live)) {
		l := sp.live[k]
		frame = appendFrameHeader(frame[:0], "put", k, l.n, l.crc)
		w.Write(frame) //nolint:errcheck
		if _, err := io.CopyN(w, io.NewSectionReader(sp.file(l), l.off, int64(l.n)), int64(l.n)); err != nil {
			return fail(fmt.Errorf("%s/%s: %w", ns, k, err))
		}
		w.WriteByte('\n') //nolint:errcheck
		live[k] = loc{snap: true, off: offset + int64(len(frame)), n: l.n, crc: l.crc}
		offset += int64(len(frame)+l.n) + 1
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(snapTmp, st.snapPath(ns)); err != nil {
		return fail(err)
	}
	fresh, size, err := st.freshLog(ns)
	if err != nil {
		// The new snapshot is in place and the old log replays over it
		// harmlessly; the open handles still read the old files.
		f.Close()
		return err
	}
	sp.close()
	sp.log, sp.size, sp.snap, sp.live = fresh, size, f, live
	sp.appended = 0
	st.stats.Compactions++
	st.syncDir()
	return nil
}

// syncDir fsyncs the state directory so renames survive a power cut;
// best-effort because not every platform supports directory syncs.
func (st *fsStore) syncDir() {
	d, err := os.Open(st.dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck
	d.Close()
}

func (st *fsStore) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.stats
	s.Namespaces = len(st.spaces)
	for _, sp := range st.spaces {
		s.Records += len(sp.live)
	}
	return s
}

func (st *fsStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var firstErr error
	for _, sp := range st.spaces {
		if sp.log != nil {
			if err := sp.log.Sync(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sp.close()
	}
	return firstErr
}

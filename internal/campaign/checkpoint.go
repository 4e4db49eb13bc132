// JSONL checkpointing: a campaign streams every completed cell as one JSON
// line, headed by a line describing the configuration. An interrupted run
// resumes by loading the file, skipping the persisted cells, and appending;
// shard files from different processes merge into the full factorial. The
// format is append-only on purpose — a crash mid-write loses at most the
// final, truncated line, which Load tolerates.

package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"sync"

	"repro/internal/dag"
)

// checkpointVersion guards the wire format.
const checkpointVersion = 1

// Header is the first line of a checkpoint file: enough of the Config to
// verify that a resume or merge talks about the same campaign.
type Header struct {
	Version      int      `json:"version"`
	Algos        []string `json:"algos"`
	Shapes       []string `json:"shapes"`
	DAGSizes     []int    `json:"dag_sizes"`
	ClusterSizes []int    `json:"cluster_sizes"`
	Replicates   int      `json:"replicates"`
	Seed         int64    `json:"seed"`
	// Cells is the full factorial size — what Complete checks a merged
	// shard set against.
	Cells int `json:"cells"`
}

// NewHeader derives the header of a config.
func NewHeader(cfg Config) Header {
	h := Header{
		Version:      checkpointVersion,
		Algos:        append([]string(nil), cfg.Algos...),
		DAGSizes:     append([]int(nil), cfg.DAGSizes...),
		ClusterSizes: append([]int(nil), cfg.ClusterSizes...),
		Replicates:   cfg.Replicates,
		Seed:         cfg.Seed,
		Cells:        len(cfg.Shapes) * len(cfg.DAGSizes) * len(cfg.ClusterSizes),
	}
	for _, s := range cfg.Shapes {
		h.Shapes = append(h.Shapes, s.String())
	}
	return h
}

// Matches verifies that the header describes the given config — the guard
// against resuming a checkpoint with different campaign flags, which would
// silently mix incomparable cells.
func (h Header) Matches(cfg Config) error {
	return h.Equal(NewHeader(cfg))
}

// Equal verifies that two headers describe the same campaign (the guard a
// merge runs across shard files).
func (h Header) Equal(o Header) error {
	a, err0 := json.Marshal(h)
	b, err1 := json.Marshal(o)
	if err0 != nil || err1 != nil {
		return fmt.Errorf("campaign: header not serializable")
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("campaign: checkpoint header %s does not match %s", a, b)
	}
	return nil
}

// Config reconstructs the campaign configuration the checkpoint was written
// with (Workers is execution detail, not identity, and comes back zero).
func (h Header) Config() (Config, error) {
	if h.Version != checkpointVersion {
		return Config{}, fmt.Errorf("campaign: checkpoint version %d (want %d)", h.Version, checkpointVersion)
	}
	cfg := Config{
		Algos:        append([]string(nil), h.Algos...),
		DAGSizes:     append([]int(nil), h.DAGSizes...),
		ClusterSizes: append([]int(nil), h.ClusterSizes...),
		Replicates:   h.Replicates,
		Seed:         h.Seed,
	}
	for _, name := range h.Shapes {
		s, err := dag.ParseShape(name)
		if err != nil {
			return Config{}, fmt.Errorf("campaign: checkpoint header: %w", err)
		}
		cfg.Shapes = append(cfg.Shapes, s)
	}
	return cfg, nil
}

// checkpointLine is one line of the file: exactly one field set.
type checkpointLine struct {
	Header *Header `json:"header,omitempty"`
	Cell   *Cell   `json:"cell,omitempty"`
}

// CheckpointWriter streams cells as JSONL records. WriteCell is safe for
// concurrent use; RunOptions.OnCell already serializes, but the REST job
// engine shares writers across retries.
type CheckpointWriter struct {
	mu  sync.Mutex
	w   io.Writer // fsynced by Sync when it can be (an *os.File can)
	enc *json.Encoder
}

// NewCheckpointWriter starts a fresh checkpoint on w by writing the header
// line for cfg. When w can fsync (an *os.File), the header is synced to
// storage before any cell may follow it: a crash must never leave cells
// whose identifying header only ever existed in the page cache.
func NewCheckpointWriter(w io.Writer, cfg Config) (*CheckpointWriter, error) {
	cw := &CheckpointWriter{w: w, enc: json.NewEncoder(w)}
	h := NewHeader(cfg)
	if err := cw.enc.Encode(checkpointLine{Header: &h}); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint header: %w", err)
	}
	if err := cw.Sync(); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint header sync: %w", err)
	}
	return cw, nil
}

// ResumeCheckpointWriter continues an existing checkpoint (opened for
// append): no new header is written.
func ResumeCheckpointWriter(w io.Writer) *CheckpointWriter {
	return &CheckpointWriter{w: w, enc: json.NewEncoder(w)}
}

// WriteCell appends one completed cell.
func (cw *CheckpointWriter) WriteCell(c Cell) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.enc.Encode(checkpointLine{Cell: &c})
}

// Sync flushes the checkpoint to storage — the end-of-run barrier a writer
// on a real file should run before declaring the checkpoint complete. A
// writer whose destination cannot fsync reports success.
func (cw *CheckpointWriter) Sync() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if s, ok := cw.w.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Checkpoint is a loaded JSONL file: the campaign identity plus every
// persisted cell.
type Checkpoint struct {
	Header Header
	// Cells holds the persisted cells sorted by index. A cell recorded
	// twice (possible after a resume raced a crash) keeps the last record.
	Cells []Cell
	// ValidSize is the byte extent of the newline-terminated records — the
	// offset a resume must truncate the file to before appending, so a
	// torn final record is cut instead of silently concatenated with the
	// first appended line.
	ValidSize int64
}

// LoadCheckpoint parses a checkpoint stream. A record only counts once its
// trailing newline made it to storage, so a truncated final line — the
// signature of a run killed mid-write — is dropped silently; a complete
// line that does not parse is corruption and an error.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	var (
		cp      *Checkpoint
		offset  int64
		valid   int64
		byIndex = map[int]int{}
		lineNo  int
	)
	for {
		line, readErr := br.ReadBytes('\n')
		offset += int64(len(line))
		if readErr != nil && readErr != io.EOF {
			return nil, fmt.Errorf("campaign: checkpoint: %w", readErr)
		}
		if readErr == io.EOF && len(line) > 0 {
			// Unterminated tail: a record torn mid-write. Drop it.
			break
		}
		if len(line) == 0 { // clean EOF
			break
		}
		lineNo++
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			valid = offset
			continue
		}
		var rec checkpointLine
		if err := json.Unmarshal(trimmed, &rec); err != nil {
			return nil, fmt.Errorf("campaign: checkpoint corrupt at line %d: %v", lineNo, err)
		}
		switch {
		case rec.Header != nil:
			if cp != nil {
				return nil, fmt.Errorf("campaign: checkpoint has two headers (line %d)", lineNo)
			}
			if rec.Header.Version != checkpointVersion {
				return nil, fmt.Errorf("campaign: checkpoint version %d (want %d)",
					rec.Header.Version, checkpointVersion)
			}
			cp = &Checkpoint{Header: *rec.Header}
		case rec.Cell != nil:
			if cp == nil {
				return nil, fmt.Errorf("campaign: checkpoint cell before header (line %d)", lineNo)
			}
			if at, dup := byIndex[rec.Cell.Index]; dup {
				cp.Cells[at] = *rec.Cell
			} else {
				byIndex[rec.Cell.Index] = len(cp.Cells)
				cp.Cells = append(cp.Cells, *rec.Cell)
			}
		default:
			return nil, fmt.Errorf("campaign: checkpoint corrupt at line %d: no header or cell", lineNo)
		}
		valid = offset
	}
	if cp == nil {
		return nil, fmt.Errorf("campaign: checkpoint has no header")
	}
	cp.ValidSize = valid
	sort.SliceStable(cp.Cells, func(i, j int) bool { return cp.Cells[i].Index < cp.Cells[j].Index })
	return cp, nil
}

// LoadCheckpointFile loads the checkpoint file at path.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cp, err := LoadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cp, nil
}

// CheckpointFile is a checkpoint file open for appending cells.
type CheckpointFile struct {
	*CheckpointWriter
	f *os.File
	// Prior is what a resumed file already held — the cells the run skips.
	// It is nil when the file was started fresh.
	Prior *Checkpoint
}

// OpenCheckpoint opens the checkpoint file at path for a run of cfg. It
// starts the file fresh, with cfg's header, unless resume is set and the
// file exists; then the file is loaded, refused unless its header is cfg's,
// cut after its last complete record, and reopened for appending.
func OpenCheckpoint(path string, cfg Config, resume bool) (*CheckpointFile, error) {
	if resume {
		cp, err := LoadCheckpointFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume: fall through to a fresh checkpoint.
		case err != nil:
			return nil, err
		default:
			if err := cp.Header.Matches(cfg); err != nil {
				return nil, fmt.Errorf("%s: %w (rerun without -resume to start over)", path, err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			// Cut a torn final record before appending, or the first new
			// record would be concatenated onto it and lost with it.
			if err := f.Truncate(cp.ValidSize); err != nil {
				f.Close()
				return nil, err
			}
			return &CheckpointFile{CheckpointWriter: ResumeCheckpointWriter(f), f: f, Prior: cp}, nil
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	cw, err := NewCheckpointWriter(f, cfg)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &CheckpointFile{CheckpointWriter: cw, f: f}, nil
}

// Close closes the file; Sync it first to make the run's cells durable.
func (cf *CheckpointFile) Close() error { return cf.f.Close() }

// Keys returns the persisted cell keys — the RunOptions.Skip set of a
// resumed run.
func (cp *Checkpoint) Keys() map[string]bool {
	out := make(map[string]bool, len(cp.Cells))
	for _, c := range cp.Cells {
		out[c.Key()] = true
	}
	return out
}

// Result converts the checkpoint into a (possibly partial) campaign result,
// ready for Merge with the cells a resumed run still had to compute.
func (cp *Checkpoint) Result() *Result {
	res := &Result{
		Algos: append([]string(nil), cp.Header.Algos...),
		Cells: append([]Cell(nil), cp.Cells...),
	}
	for _, c := range res.Cells {
		res.Total += c.Runs
	}
	return res
}

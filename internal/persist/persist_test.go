package persist

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// backends runs a subtest against each Store implementation.
func backends(t *testing.T, run func(t *testing.T, open func(t *testing.T) Store)) {
	t.Helper()
	t.Run("memory", func(t *testing.T) {
		run(t, func(t *testing.T) Store { return Memory() })
	})
	t.Run("fs", func(t *testing.T) {
		dir := t.TempDir()
		run(t, func(t *testing.T) Store {
			st, err := Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return st
		})
	})
}

func TestRoundTrip(t *testing.T) {
	backends(t, func(t *testing.T, open func(t *testing.T) Store) {
		st := open(t)
		defer st.Close()
		if err := st.Put("ns", "a", []byte("one")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := st.PutDurable("ns", "b", []byte("two")); err != nil {
			t.Fatalf("PutDurable: %v", err)
		}
		if err := st.Put("ns", "a", []byte("one-v2")); err != nil {
			t.Fatalf("Put upsert: %v", err)
		}
		v, ok, err := st.Get("ns", "a")
		if err != nil || !ok || string(v) != "one-v2" {
			t.Fatalf("Get a = %q, %v, %v; want one-v2", v, ok, err)
		}
		if _, ok, _ := st.Get("ns", "missing"); ok {
			t.Fatal("Get missing reported ok")
		}
		if err := st.Delete("ns", "b"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, ok, _ := st.Get("ns", "b"); ok {
			t.Fatal("deleted key still present")
		}
		all, err := st.Load("ns")
		if err != nil || len(all) != 1 || string(all["a"]) != "one-v2" {
			t.Fatalf("Load = %v, %v; want one key a=one-v2", all, err)
		}
		// Mutating the returned map/values must not affect the store.
		all["a"][0] = 'X'
		v, _, _ = st.Get("ns", "a")
		if string(v) != "one-v2" {
			t.Fatal("Load returned aliased bytes")
		}
		if err := st.Put("bad ns", "k", nil); err == nil {
			t.Fatal("namespace with a space accepted")
		}
		if err := st.Put("", "k", nil); err == nil {
			t.Fatal("empty namespace accepted")
		}
	})
}

func TestDeletePrefix(t *testing.T) {
	backends(t, func(t *testing.T, open func(t *testing.T) Store) {
		st := open(t)
		defer st.Close()
		for _, k := range []string{"j1/c/1", "j1/c/2", "j10/c/1", "j2/c/1"} {
			if err := st.Put("cells", k, []byte(k)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		if err := st.DeletePrefix("cells", "j1/"); err != nil {
			t.Fatalf("DeletePrefix: %v", err)
		}
		all, _ := st.Load("cells")
		if len(all) != 2 {
			t.Fatalf("after DeletePrefix(j1/): %d keys left, want 2 (j10 and j2 untouched)", len(all))
		}
		for _, want := range []string{"j10/c/1", "j2/c/1"} {
			if _, ok := all[want]; !ok {
				t.Fatalf("key %s missing after unrelated prefix delete", want)
			}
		}
	})
}

// TestKeys checks after every kind of write, a compaction and a reopen
// that Keys lists exactly the keys Load returns, sorted.
func TestKeys(t *testing.T) {
	backends(t, func(t *testing.T, open func(t *testing.T) Store) {
		st := open(t)
		check := func(step string, want ...string) {
			t.Helper()
			keys, err := st.Keys("ns")
			if err != nil {
				t.Fatalf("%s: Keys: %v", step, err)
			}
			all, err := st.Load("ns")
			if err != nil {
				t.Fatalf("%s: Load: %v", step, err)
			}
			if !slices.Equal(keys, slices.Sorted(maps.Keys(all))) || !slices.Equal(keys, want) {
				t.Fatalf("%s: Keys = %q, Load has %q, want %q", step, keys, slices.Sorted(maps.Keys(all)), want)
			}
		}
		check("empty")
		for _, k := range []string{"j2/c/1", "s1", "j1/c/1", "j1/c/2", "s2"} {
			if err := st.Put("ns", k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		check("put", "j1/c/1", "j1/c/2", "j2/c/1", "s1", "s2")
		if err := st.Delete("ns", "s2"); err != nil {
			t.Fatal(err)
		}
		check("del", "j1/c/1", "j1/c/2", "j2/c/1", "s1")
		if err := st.DeletePrefix("ns", "j1/"); err != nil {
			t.Fatal(err)
		}
		check("delprefix", "j2/c/1", "s1")
		if err := st.Compact("ns"); err != nil {
			t.Fatal(err)
		}
		check("compact", "j2/c/1", "s1")
		if err := st.PutDurable("ns", "s3", nil); err != nil {
			t.Fatal(err)
		}
		check("put after compact", "j2/c/1", "s1", "s3")
		if _, ok := st.(*fsStore); ok {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = open(t)
			check("reopen", "j2/c/1", "s1", "s3")
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFSReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := st.PutDurable("sessions", "s1", []byte(`{"id":"s1"}`)); err != nil {
		t.Fatalf("PutDurable: %v", err)
	}
	if err := st.Put("jobs", "j1", []byte("pending")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := st.Put("jobs", "j1", []byte("done")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := st.Delete("jobs", "gone"); err != nil {
		t.Fatalf("Delete absent: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	v, ok, _ := st2.Get("sessions", "s1")
	if !ok || string(v) != `{"id":"s1"}` {
		t.Fatalf("sessions/s1 after reopen = %q, %v", v, ok)
	}
	v, ok, _ = st2.Get("jobs", "j1")
	if !ok || string(v) != "done" {
		t.Fatalf("jobs/j1 after reopen = %q, %v; want the upserted value", v, ok)
	}
	if got := st2.Stats().Namespaces; got != 2 {
		t.Fatalf("namespaces after reopen = %d, want 2", got)
	}
}

func TestFSTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Put("ns", fmt.Sprintf("k%d", i), []byte{byte('0' + i)}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	st.Close()

	// Simulate a crash mid-append: a final record missing its newline.
	logPath := filepath.Join(dir, "ns.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := testFrame("put", "torn", []byte("AAAA"))
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tornSize := fileSize(t, logPath)

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if _, ok, _ := st2.Get("ns", "torn"); ok {
		t.Fatal("torn record surfaced after reopen")
	}
	all, _ := st2.Load("ns")
	if len(all) != 3 {
		t.Fatalf("torn tail cost more than the torn record: %d keys, want 3", len(all))
	}
	if got := fileSize(t, logPath); got >= tornSize {
		t.Fatalf("torn tail not truncated: size %d, was %d", got, tornSize)
	}
	// The log must be appendable again after the truncation.
	if err := st2.Put("ns", "k3", []byte("3")); err != nil {
		t.Fatalf("Put after truncation: %v", err)
	}
	st2.Close()
	st3, err := Open(dir)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer st3.Close()
	if v, ok, _ := st3.Get("ns", "k3"); !ok || string(v) != "3" {
		t.Fatalf("record appended after truncation lost: %q, %v", v, ok)
	}
}

func TestFSCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Overwrite few keys many times: log length far exceeds live count,
	// which must trip automatic compaction.
	for i := 0; i < 600; i++ {
		if err := st.Put("ns", fmt.Sprintf("k%d", i%4), []byte(strings.Repeat("x", i%17))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if got := st.Stats().Compactions; got == 0 {
		t.Fatal("600 overwrites of 4 keys never compacted")
	}
	if _, err := os.Stat(filepath.Join(dir, "ns.snap")); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	if size := fileSize(t, filepath.Join(dir, "ns.log")); size > 4096 {
		t.Fatalf("log still %d bytes after compaction", size)
	}
	want, _ := st.Load("ns")
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer st2.Close()
	got, _ := st2.Load("ns")
	if len(got) != len(want) {
		t.Fatalf("reopen lost records: %d != %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %s differs after compacted reopen", k)
		}
	}

	// Explicit Compact must also work and keep every record.
	if err := st2.Compact("ns"); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	again, _ := st2.Load("ns")
	if len(again) != len(want) {
		t.Fatalf("explicit Compact lost records: %d != %d", len(again), len(want))
	}
}

func TestFSVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ns.log"),
		[]byte("{\"persist\":99,\"ns\":\"ns\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("future schema version opened without error: %v", err)
	}
}

// TestFSRefusesV1 opens a directory written in the version 1 format (one
// JSON line per record, values in base64), next to a compaction leftover:
// Open names both versions, says how to start over, and leaves every file
// byte for byte as it was.
func TestFSRefusesV1(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"sessions.log":     "{\"persist\":1,\"ns\":\"sessions\"}\n{\"op\":\"put\",\"key\":\"s1\",\"val\":\"e30=\"}\n{\"op\":\"put\",\"key\":\"s2\",\"val\":\"e30",
		"jobs.snap":        "{\"persist\":1,\"ns\":\"jobs\"}\n{\"op\":\"put\",\"key\":\"j1\",\"val\":\"e30=\"}\n",
		"jobs.log":         "{\"persist\":1,\"ns\":\"jobs\"}\n",
		"jobs.snap.tmp":    "partial",
		"runs.log":         string(headerLine("runs")) + string(testFrame("put", "j1/header", []byte("{}")))[:9],
		"notes-not-ns.txt": "hi",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Open(dir)
	if err == nil {
		t.Fatal("version 1 directory opened")
	}
	for _, want := range []string{"schema version 1", "version 2", "empty -state-dir"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not say %q", err, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(files) {
		t.Fatalf("directory holds %d files after the refusal, want %d", len(entries), len(files))
	}
	for name, body := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != body {
			t.Fatalf("%s changed by the refused Open: %q (err %v)", name, got, err)
		}
	}
}

// TestFSCorruptLine damages the middle one of three frames. A damaged
// header, or a terminator that is not a newline, is refused at Open as
// corruption. A damaged value is not read at Open: the store opens, the
// damaged key fails its Get and the Load of its namespace, and the other
// keys read back.
func TestFSCorruptLine(t *testing.T) {
	frame := string(testFrame("put", "b", []byte("two"))) // "c6373669 put 3 ..."
	for name, tail := range map[string]string{
		"garbage line":    "not a frame\n",
		"value checksum":  strings.Replace(frame, "two", "tWo", 1),
		"header field":    strings.Replace(frame, `"b"`, `"c"`, 1),
		"header checksum": strings.ToUpper(frame[:8]) + frame[8:],
		"no newline":      strings.TrimSuffix(frame, "\n") + "X",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			log := string(headerLine("ns")) + string(testFrame("put", "a", []byte("one"))) + tail +
				string(testFrame("put", "c", []byte("three")))
			if err := os.WriteFile(filepath.Join(dir, "ns.log"), []byte(log), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir)
			if name != "value checksum" {
				if err == nil || !strings.Contains(err.Error(), "corrupt") {
					st.Close()
					t.Fatalf("complete damaged frame accepted: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Open refused a damaged value: %v", err)
			}
			defer st.Close()
			checkDamaged(t, st, map[string]string{"a": "one", "b": "two", "c": "three"}, "b")
		})
	}
}

// checkDamaged asserts that ns holds exactly the keys of want, that the
// value of bad fails its Get with a checksum error and so fails Load, and
// that every other value reads back.
func checkDamaged(t *testing.T, st Store, want map[string]string, bad string) {
	t.Helper()
	keys, err := st.Keys("ns")
	if err != nil || !slices.Equal(keys, slices.Sorted(maps.Keys(want))) {
		t.Fatalf("Keys = %q, %v; want the keys of %q", keys, err, want)
	}
	if _, _, err := st.Get("ns", bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Get of damaged %q: %v", bad, err)
	}
	if _, err := st.Load("ns"); err == nil {
		t.Fatal("Load of a namespace with a damaged value succeeded")
	}
	for k, v := range want {
		if k == bad {
			continue
		}
		if got, ok, err := st.Get("ns", k); err != nil || !ok || string(got) != v {
			t.Fatalf("Get %q = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
}

// TestFSCompactKeepsDamage compacts a namespace holding a damaged value:
// the compaction succeeds, and the value keeps failing its read from the
// snapshot, also after a reopen, while the other values read back.
func TestFSCompactKeepsDamage(t *testing.T) {
	dir := t.TempDir()
	log := string(headerLine("ns")) + string(testFrame("put", "a", []byte("one"))) +
		strings.Replace(string(testFrame("put", "b", []byte("two"))), "two", "tWo", 1) +
		string(testFrame("put", "c", []byte("three")))
	if err := os.WriteFile(filepath.Join(dir, "ns.log"), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "one", "b": "two", "c": "three"}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact("ns"); err != nil {
		t.Fatalf("Compact over a damaged value: %v", err)
	}
	checkDamaged(t, st, want, "b")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "ns.snap"))
	if err != nil || !bytes.Contains(snap, []byte("tWo")) {
		t.Fatalf("snapshot does not hold the damaged bytes: %q, %v", snap, err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen of the compacted namespace: %v", err)
	}
	defer st2.Close()
	checkDamaged(t, st2, want, "b")
}

// TestFSGetRechecksCRC damages a value on disk after Open indexed it: Get
// and Load report the damage instead of returning the bytes.
func TestFSGetRechecksCRC(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.PutDurable("ns", "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ns.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(raw, []byte("payload"), []byte("paYload"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get("ns", "k"); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Get of a damaged value: %v", err)
	}
	if _, err := st.Load("ns"); err == nil {
		t.Fatal("Load of a damaged value succeeded")
	}
}

func TestFSIgnoresForeignAndTmpFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ns.snap.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with foreign files: %v", err)
	}
	defer st.Close()
	if _, err := os.Stat(filepath.Join(dir, "ns.snap.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale compaction tmp file not removed at open")
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("foreign file was touched")
	}
}

func TestConcurrent(t *testing.T) {
	backends(t, func(t *testing.T, open func(t *testing.T) Store) {
		st := open(t)
		defer st.Close()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ns := fmt.Sprintf("ns%d", g%2)
				for i := 0; i < 50; i++ {
					key := fmt.Sprintf("g%d-k%d", g, i)
					if err := st.Put(ns, key, []byte(key)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					if _, _, err := st.Get(ns, key); err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if i%10 == 9 {
						if _, err := st.Load(ns); err != nil {
							t.Errorf("Load: %v", err)
							return
						}
						st.Stats()
					}
				}
			}(g)
		}
		wg.Wait()
		for g := 0; g < 2; g++ {
			all, err := st.Load(fmt.Sprintf("ns%d", g))
			if err != nil || len(all) != 200 {
				t.Fatalf("ns%d holds %d records, want 200 (%v)", g, len(all), err)
			}
		}
	})
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	return fi.Size()
}

// testFrame is the on-disk frame of one record.
func testFrame(op, key string, value []byte) []byte {
	return appendFrame(nil, op, key, value, crc32.Checksum(value, castagnoli))
}

// BenchmarkOpen opens a state directory whose one namespace is a log of
// 10,000 small frames, or of 40 documents of ~650 KB each (the size of the
// repository benchmark's restart documents).
//
//	go test -run '^$' -bench '^BenchmarkOpen$' -benchmem ./internal/persist
func BenchmarkOpen(b *testing.B) {
	for _, bc := range []struct {
		name    string
		records int
		size    int
	}{{"small", 10000, 100}, {"docs", 40, 650 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			st, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			value := bytes.Repeat([]byte("<task/>\n"), bc.size/8)
			for i := 0; i < bc.records; i++ {
				if err := st.Put("ns", fmt.Sprintf("s%d", i), value); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(fileSize(b, filepath.Join(dir, "ns.log")))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				st.Close()
			}
		})
	}
}

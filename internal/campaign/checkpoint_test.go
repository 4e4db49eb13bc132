package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// checkpointRun runs cfg while streaming cells to a buffer, returning both.
func checkpointRun(t *testing.T, cfg Config, opt RunOptions) (*Result, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	cw, err := NewCheckpointWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt.OnCell = cw.WriteCell
	res, err := RunContext(context.Background(), cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, &buf
}

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := smallConfig()
	res, buf := checkpointRun(t, cfg, RunOptions{})
	cp, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Header.Matches(cfg); err != nil {
		t.Fatal(err)
	}
	if cp.Header.Cells != 12 {
		t.Fatalf("header cells = %d", cp.Header.Cells)
	}
	if cp.ValidSize != int64(buf.Len()) {
		t.Fatalf("valid size = %d, buffer = %d", cp.ValidSize, buf.Len())
	}
	if !reflect.DeepEqual(cp.Result(), res) {
		t.Fatal("checkpoint round trip lost data")
	}
	back, err := cp.Header.Config()
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Header.Matches(back); err != nil {
		t.Fatalf("Header.Config does not round-trip: %v", err)
	}
}

// TestCheckpointResumeAfterTruncation is the satellite acceptance: cut a
// checkpoint mid-record, load it (dropping the torn tail), rerun with the
// loaded skip set, and verify the combined result equals the full run.
func TestCheckpointResumeAfterTruncation(t *testing.T) {
	cfg := smallConfig()
	full, buf := checkpointRun(t, cfg, RunOptions{})

	// Cut mid-record: strip the last 30 bytes, leaving a torn final line.
	torn := buf.Bytes()[:buf.Len()-30]
	cp, err := LoadCheckpoint(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Cells) != len(full.Cells)-1 {
		t.Fatalf("torn checkpoint has %d cells, want %d", len(cp.Cells), len(full.Cells)-1)
	}
	if int(cp.ValidSize) >= len(torn) {
		t.Fatalf("valid size %d does not exclude the torn tail (%d bytes)", cp.ValidSize, len(torn))
	}

	// Resume exactly like cmd/campaign: truncate to the valid prefix,
	// append the missing cells, and reload.
	resumed := bytes.NewBuffer(append([]byte(nil), torn[:cp.ValidSize]...))
	cw := ResumeCheckpointWriter(resumed)
	rest, err := RunContext(context.Background(), cfg, RunOptions{Skip: cp.Keys(), OnCell: cw.WriteCell})
	if err != nil {
		t.Fatal(err)
	}
	if len(rest.Cells) != 1 {
		t.Fatalf("resume ran %d cells, want 1", len(rest.Cells))
	}
	merged, err := Merge(cp.Result(), rest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, full) {
		t.Fatal("resumed result differs from uninterrupted run")
	}

	// The resumed file itself must load complete.
	cp2, err := LoadCheckpoint(bytes.NewReader(resumed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp2.Result(), full) {
		t.Fatal("resumed checkpoint file differs from uninterrupted run")
	}
}

func TestCheckpointShardFilesMerge(t *testing.T) {
	cfg := smallConfig()
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*Result
	var firstHeader *Header
	for k := 1; k <= 2; k++ {
		_, buf := checkpointRun(t, cfg, RunOptions{Shard: Shard{K: k, N: 2}})
		cp, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if firstHeader == nil {
			h := cp.Header
			firstHeader = &h
		} else if err := cp.Header.Equal(*firstHeader); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, cp.Result())
	}
	merged, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Complete(firstHeader.Cells); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, full) {
		t.Fatal("merged shard checkpoints differ from the unsharded run")
	}
}

func TestCheckpointHeaderMismatch(t *testing.T) {
	cfg := smallConfig()
	_, buf := checkpointRun(t, cfg, RunOptions{})
	cp, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	if err := cp.Header.Matches(other); err == nil {
		t.Error("seed change not detected")
	}
	other = cfg
	other.Algos = []string{"cpa", "heft"}
	if err := cp.Header.Matches(other); err == nil {
		t.Error("algorithm change not detected")
	}
	other = cfg
	other.Workers = 7 // execution detail, not campaign identity
	if err := cp.Header.Matches(other); err != nil {
		t.Errorf("worker count changed the header: %v", err)
	}
}

func TestCheckpointCorruption(t *testing.T) {
	cfg := smallConfig()
	_, buf := checkpointRun(t, cfg, RunOptions{})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")

	for name, doc := range map[string]string{
		"empty":              "",
		"no header":          lines[1] + "\n",
		"cell before header": lines[1] + "\n" + lines[0] + "\n",
		"double header":      lines[0] + "\n" + lines[0] + "\n",
		"mid-file garbage":   lines[0] + "\ngarbage\n" + lines[1] + "\n",
		"complete bad line":  lines[0] + "\n" + lines[1][:len(lines[1])/2] + "\n",
		"empty object":       lines[0] + "\n{}\n",
	} {
		if _, err := LoadCheckpoint(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A torn (unterminated) tail is fine; blank lines are tolerated.
	for name, doc := range map[string]string{
		"torn tail":   lines[0] + "\n" + lines[1][:len(lines[1])/2],
		"blank lines": lines[0] + "\n\n" + lines[1] + "\n\n",
	} {
		if _, err := LoadCheckpoint(strings.NewReader(doc)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// Duplicate cell records keep the last occurrence.
	dup := lines[0] + "\n" + lines[1] + "\n" + lines[1] + "\n"
	cp, err := LoadCheckpoint(strings.NewReader(dup))
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Cells) != 1 {
		t.Fatalf("duplicate record kept %d cells", len(cp.Cells))
	}

	// Version guard.
	bad := strings.Replace(lines[0], `"version":1`, `"version":99`, 1)
	if bad == lines[0] {
		t.Fatal("version marker not found in header line")
	}
	if _, err := LoadCheckpoint(strings.NewReader(bad + "\n")); err == nil {
		t.Error("future version accepted")
	}
}

// syncCounter wraps a buffer with a Sync method so tests can observe the
// fsync barriers a CheckpointWriter issues.
type syncCounter struct {
	bytes.Buffer
	syncs int
}

func (s *syncCounter) Sync() error { s.syncs++; return nil }

// TestCheckpointWriterSyncsHeader pins the durability contract: the header
// record is synced before any cell may follow it, Sync flushes on demand,
// and a destination without fsync (a plain buffer) still works.
func TestCheckpointWriterSyncsHeader(t *testing.T) {
	cfg := smallConfig()
	var w syncCounter
	cw, err := NewCheckpointWriter(&w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.syncs != 1 {
		t.Fatalf("header written with %d syncs, want 1", w.syncs)
	}
	if err := cw.WriteCell(Cell{Index: 0}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.syncs != 2 {
		t.Fatalf("after explicit Sync, syncs = %d, want 2", w.syncs)
	}

	var buf bytes.Buffer
	cw2, err := NewCheckpointWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw2.Sync(); err != nil {
		t.Fatalf("Sync on an unsyncable destination = %v, want nil", err)
	}
}

// TestOpenCheckpoint drives the one resume sequence both CLIs share: every
// opened file, once the run's missing cells are appended, must load as the
// full factorial; a foreign header must be refused with the file untouched.
func TestOpenCheckpoint(t *testing.T) {
	cfg := smallConfig()
	full, buf := checkpointRun(t, cfg, RunOptions{})
	other := cfg
	other.Seed++
	_, foreign := checkpointRun(t, other, RunOptions{})

	for _, tc := range []struct {
		name      string
		file      []byte // nil: no file at the path
		resume    bool
		wantPrior int // cells the open reports as already done; -1 = fresh
		wantErr   bool
	}{
		{name: "fresh", file: buf.Bytes(), resume: false, wantPrior: -1},
		{name: "missing file on resume", file: nil, resume: true, wantPrior: -1},
		{name: "torn tail cut", file: buf.Bytes()[:buf.Len()-30], resume: true, wantPrior: len(full.Cells) - 1},
		{name: "header mismatch", file: foreign.Bytes(), resume: true, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cp.jsonl")
			if tc.file != nil {
				if err := os.WriteFile(path, tc.file, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cp, err := OpenCheckpoint(path, cfg, tc.resume)
			if tc.wantErr {
				if err == nil {
					cp.Close()
					t.Fatal("open succeeded")
				}
				if raw, _ := os.ReadFile(path); !bytes.Equal(raw, tc.file) {
					t.Fatal("refused file was modified")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			opt := RunOptions{OnCell: cp.WriteCell}
			prior := -1
			if cp.Prior != nil {
				prior = len(cp.Prior.Cells)
				opt.Skip = cp.Prior.Keys()
			}
			if prior != tc.wantPrior {
				t.Fatalf("prior cells = %d, want %d", prior, tc.wantPrior)
			}
			if _, err := RunContext(context.Background(), cfg, opt); err != nil {
				t.Fatal(err)
			}
			if err := cp.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := cp.Close(); err != nil {
				t.Fatal(err)
			}
			back, err := LoadCheckpointFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := back.Result().Complete(back.Header.Cells); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Result(), full) {
				t.Fatal("checkpoint differs from the uninterrupted run")
			}
		})
	}
}

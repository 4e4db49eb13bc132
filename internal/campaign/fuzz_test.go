package campaign

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
)

// FuzzLoadCheckpoint checks the torn-tail rule of checkpoints two ways.
// Any input LoadCheckpoint accepts must replay the same from its ValidSize
// prefix, and a resume that cuts the file there and appends a cell must
// load every earlier cell plus the new one. A checkpoint written by
// CheckpointWriter and cut at any byte must load exactly the cells whose
// lines are complete, and resuming it with the rest loses none.
//
//	go test -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime 30s ./internal/campaign
func FuzzLoadCheckpoint(f *testing.F) {
	var buf bytes.Buffer
	cw, err := NewCheckpointWriter(&buf, smallConfig())
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range fuzzCells([]byte("seed")) {
		if err := cw.WriteCell(c); err != nil {
			f.Fatal(err)
		}
	}
	valid := buf.Bytes()
	f.Add(valid, uint32(len(valid)))
	f.Add(valid[:len(valid)-7], uint32(len(valid)/2))
	f.Add([]byte(`{"header":{"version":1}}`+"\n"+`{"cell":{"index":3}}`+"\n"+`{"cell":{"index":3,"runs":2}}`+"\n{\"ce"), uint32(30))
	f.Add([]byte("{\"cell\":{}}\n"), uint32(0))
	f.Add([]byte("\n \n{\"header\":{\"version\":1}}\n\t\n"), uint32(3))
	f.Fuzz(func(t *testing.T, data []byte, cut uint32) {
		if cp, err := LoadCheckpoint(bytes.NewReader(data)); err == nil {
			checkReplay(t, data, cp)
		}

		// A written checkpoint cut at any byte.
		var buf bytes.Buffer
		cw, err := NewCheckpointWriter(&buf, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		cells := fuzzCells(data)
		ends := []int{buf.Len()}
		for _, c := range cells {
			if err := cw.WriteCell(c); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, buf.Len())
		}
		n := int(cut % uint32(buf.Len()+1))
		cp, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()[:n]))
		if n < ends[0] {
			if err == nil {
				t.Fatalf("checkpoint cut inside its header at %d loaded", n)
			}
			return
		}
		if err != nil {
			t.Fatalf("checkpoint cut at %d: %v", n, err)
		}
		k := 0
		for k+1 < len(ends) && ends[k+1] <= n {
			k++
		}
		if cp.ValidSize != int64(ends[k]) || !sameCells(cp.Cells, cells[:k]) {
			t.Fatalf("cut at %d: %d cells up to %d, want %d up to %d", n, len(cp.Cells), cp.ValidSize, k, ends[k])
		}
		resumed := bytes.NewBuffer(append([]byte(nil), buf.Bytes()[:cp.ValidSize]...))
		rw := ResumeCheckpointWriter(resumed)
		for _, c := range cells[k:] {
			if err := rw.WriteCell(c); err != nil {
				t.Fatal(err)
			}
		}
		all, err := LoadCheckpoint(bytes.NewReader(resumed.Bytes()))
		if err != nil || !sameCells(all.Cells, cells) {
			t.Fatalf("resume after a cut at %d lost cells (err %v)", n, err)
		}
	})
}

// checkReplay asserts that the ValidSize prefix of data is exactly what cp
// replayed, and that a resume cutting data there keeps every cell.
func checkReplay(t *testing.T, data []byte, cp *Checkpoint) {
	t.Helper()
	if cp.ValidSize < 0 || cp.ValidSize > int64(len(data)) ||
		(cp.ValidSize > 0 && data[cp.ValidSize-1] != '\n') {
		t.Fatalf("ValidSize %d of %d bytes is not a line boundary", cp.ValidSize, len(data))
	}
	prefix := data[:cp.ValidSize]
	again, err := LoadCheckpoint(bytes.NewReader(prefix))
	if err != nil {
		t.Fatalf("ValidSize prefix does not load: %v", err)
	}
	if !reflect.DeepEqual(again, cp) {
		t.Fatalf("ValidSize prefix replays differently:\n%+v\nvs\n%+v", again, cp)
	}
	used := map[int]bool{}
	for _, c := range cp.Cells {
		used[c.Index] = true
	}
	extra := Cell{Index: 0, Runs: 1, Algos: []string{"cpa"}, Wins: []int{1}}
	for used[extra.Index] {
		extra.Index++
	}
	resumed := bytes.NewBuffer(append([]byte(nil), prefix...))
	if err := ResumeCheckpointWriter(resumed).WriteCell(extra); err != nil {
		t.Fatal(err)
	}
	after, err := LoadCheckpoint(bytes.NewReader(resumed.Bytes()))
	if err != nil {
		t.Fatalf("resumed checkpoint does not load: %v", err)
	}
	want := append(append([]Cell(nil), cp.Cells...), extra)
	if after.ValidSize != int64(resumed.Len()) || !sameCells(after.Cells, want) {
		t.Fatalf("resume lost cells: %d cells, want %d", len(after.Cells), len(want))
	}
}

// fuzzCells derives up to 7 distinct cells from data, in index order.
func fuzzCells(data []byte) []Cell {
	cells := make([]Cell, len(data)%8)
	for i := range cells {
		b := int(data[i])
		cells[i] = Cell{
			Index: i, DAGSize: 15 + b, Cluster: 32, Algos: []string{"cpa", "mcpa"},
			Runs: b % 4, Wins: []int{b % 3, b % 2}, Ties: b % 5,
			MeanSpread: 1 + float64(b)/7, MaxSpread: 1 + float64(b)/3,
		}
	}
	return cells
}

// sameCells compares cell lists as LoadCheckpoint returns them, sorted by
// index.
func sameCells(got, want []Cell) bool {
	sorted := append([]Cell(nil), want...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	return len(got) == len(sorted) && (len(got) == 0 || reflect.DeepEqual(got, sorted))
}

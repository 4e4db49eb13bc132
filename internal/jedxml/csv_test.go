package jedxml

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

const sampleCSV = `# demo schedule
meta,algorithm,cpa
cluster,0,front,4
cluster,1,back,2
task,t1,computation,0,1.5,0,0,4
task,t2,transfer,1.5,2,0,0,1,1,0,1
task,t3,computation,2,3,1,0,2
`

func TestReadCSV(t *testing.T) {
	s, err := ReadCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clusters) != 2 || len(s.Tasks) != 3 {
		t.Fatalf("parsed %d clusters, %d tasks", len(s.Clusters), len(s.Tasks))
	}
	if s.MetaValue("algorithm") != "cpa" {
		t.Error("meta lost")
	}
	t2 := s.Task("t2")
	if t2 == nil || len(t2.Allocations) != 2 {
		t.Fatalf("t2 = %+v", t2)
	}
	if t2.Allocations[1].Cluster != 1 {
		t.Errorf("t2 second allocation = %+v", t2.Allocations[1])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		s := randomSchedule(r)
		// CSV drops task properties; strip them for comparison.
		for j := range s.Tasks {
			s.Tasks[j].Properties = nil
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, s); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("iter %d mismatch:\n got %+v\nwant %+v", i, back, s)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []struct{ name, doc, wants string }{
		{"unknown kind", "bogus,1,2\n", "unknown record kind"},
		{"short meta", "meta,onlyname\n", "meta needs"},
		{"short cluster", "cluster,0,x\n", "cluster needs"},
		{"bad cluster id", "cluster,x,c,4\n", "bad cluster numbers"},
		{"short task", "cluster,0,c,4\ntask,t,x,0,1\n", "task needs"},
		{"bad times", "cluster,0,c,4\ntask,t,x,zero,1,0,0,1\n", "bad task times"},
		{"bad alloc", "cluster,0,c,4\ntask,t,x,0,1,0,zero,1\n", "bad allocation numbers"},
		{"invalid sched", "cluster,0,c,4\ntask,t,x,0,1,0,0,9\n", "invalid schedule"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.wants) {
				t.Fatalf("err = %v, want containing %q", err, tc.wants)
			}
		})
	}
}

func TestWriteCSVRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, &core.Schedule{}); err == nil {
		t.Fatal("WriteCSV accepted an invalid schedule")
	}
}

func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := ReadCSV(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, s); err != nil {
			t.Fatalf("WriteCSV of an accepted schedule: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("ReadCSV of WriteCSV's output: %v\n%s", err, buf.Bytes())
		}
		if !sameSchedule(back, s) {
			t.Fatalf("round trip differs\n got %+v\nwant %+v", back, s)
		}
	})
}

package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReplay writes a valid log of n records, damages it — mode 0 cuts it
// at pos, mode 1 appends extra, mode 2 flips the bits of extra[0] at pos —
// and reopens it. Open must never panic. It may refuse the damage with a
// corruption error, except for a cut, which only ever costs the frame it
// falls into; when it succeeds, the store holds exactly the records of the
// complete frames, and appends after the cut survive the next reopen.
//
//	go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 30s ./internal/persist
func FuzzReplay(f *testing.F) {
	f.Add(uint8(6), uint8(0), uint32(90), []byte{})
	f.Add(uint8(6), uint8(0), uint32(1<<20), []byte{})
	f.Add(uint8(3), uint8(1), uint32(0), []byte("garbage\n"))
	f.Add(uint8(3), uint8(1), uint32(0), []byte("00000000 put 5"))
	f.Add(uint8(9), uint8(2), uint32(70), []byte{0x04})
	f.Add(uint8(9), uint8(2), uint32(3), []byte{0x20})
	f.Fuzz(func(t *testing.T, n, mode uint8, pos uint32, extra []byte) {
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "ns.log")
		// states[i] is the namespace after i records; ends[i] the log size.
		states := []map[string]string{{}}
		ends := []int64{int64(len(headerLine("ns")))}
		live := map[string]string{}
		for i := 0; i < int(n%24); i++ {
			key := fuzzKeys[i%len(fuzzKeys)]
			switch i % 7 {
			case 5:
				if err := st.Delete("ns", key); err != nil {
					t.Fatal(err)
				}
				if _, ok := live[key]; !ok {
					continue // no frame written
				}
				delete(live, key)
			case 6:
				if err := st.DeletePrefix("ns", "k"); err != nil {
					t.Fatal(err)
				}
				any := false
				for k := range live {
					if strings.HasPrefix(k, "k") {
						delete(live, k)
						any = true
					}
				}
				if !any {
					continue
				}
			default:
				val := strings.Repeat(fmt.Sprintf("v%d\n", i), i%4) + string(extra)
				if err := st.Put("ns", key, []byte(val)); err != nil {
					t.Fatal(err)
				}
				live[key] = val
			}
			states = append(states, copyMap(live))
			ends = append(ends, fileSize(t, path))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if len(ends) == 1 {
			return // nothing written, no log
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		size := int64(len(raw))

		want := states[len(states)-1]
		switch mode % 3 {
		case 0:
			cut := int64(pos) % (size + 1)
			raw = raw[:cut]
			want = nil // a cut inside the file header may be refused
			for i := len(ends) - 1; i >= 0; i-- {
				if ends[i] <= cut {
					want = states[i]
					break
				}
			}
		case 1:
			raw = append(raw, extra...)
		case 2:
			if len(extra) == 0 || extra[0] == 0 {
				return
			}
			raw[int64(pos)%size] ^= extra[0]
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		st2, err := Open(dir)
		if err != nil {
			corrupt := strings.Contains(err.Error(), "corrupt")
			switch {
			case mode%3 == 0 && want != nil:
				t.Fatalf("cut at %d refused: %v", len(raw), err)
			case mode%3 == 1 && !corrupt:
				t.Fatalf("extension refused without a corruption error: %v", err)
			case mode%3 == 2 && int64(pos)%size >= ends[0] && !corrupt:
				t.Fatalf("flipped frame refused without a corruption error: %v", err)
			}
			return
		}
		defer st2.Close()
		if want == nil {
			t.Fatalf("log cut inside its header opened")
		}
		checkState(t, st2, want)
		if err := st2.Put("ns", "after", []byte("tail")); err != nil {
			t.Fatal(err)
		}
		st2.Close()
		st3, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen after an append to the replayed log: %v", err)
		}
		defer st3.Close()
		want = copyMap(want)
		want["after"] = "tail"
		checkState(t, st3, want)
	})
}

// fuzzKeys mixes plain keys with keys a line-based format would split.
var fuzzKeys = []string{"k1", "k2", "j1/c/00000001", "with space", "new\nline", `"quoted"`, "k3"}

func checkState(t *testing.T, st Store, want map[string]string) {
	t.Helper()
	got, err := st.Load("ns")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], []byte(v)) {
			t.Fatalf("record %q = %q, want %q", k, got[k], v)
		}
		if g, ok, err := st.Get("ns", k); err != nil || !ok || string(g) != v {
			t.Fatalf("Get %q = %q, %v, %v", k, g, ok, err)
		}
	}
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

package persist

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzReplay writes a valid log of n records, damages it — mode 0 cuts it
// at pos, mode 1 appends extra, mode 2 flips the bits of extra[0] at pos —
// and reopens it. Open must never panic. It may refuse an extension with a
// corruption error; a cut only ever costs the frame it falls into. A flip
// in a frame's header or terminator is refused as corruption; a flip in a
// value opens, and makes exactly that key's reads fail if the value is
// still live, while every other key reads back. When Open succeeds, the
// store holds exactly the records of the complete frames, and appends
// after the damage survive the next reopen.
//
//	go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 30s ./internal/persist
func FuzzReplay(f *testing.F) {
	f.Add(uint8(6), uint8(0), uint32(90), []byte{})
	f.Add(uint8(6), uint8(0), uint32(1<<20), []byte{})
	f.Add(uint8(3), uint8(1), uint32(0), []byte("garbage\n"))
	f.Add(uint8(3), uint8(1), uint32(0), []byte("00000000 put 5"))
	f.Add(uint8(9), uint8(2), uint32(70), []byte{0x04})
	f.Add(uint8(9), uint8(2), uint32(3), []byte{0x20})
	f.Add(uint8(9), uint8(2), uint32(130), []byte{0x01}) // a live value
	f.Add(uint8(9), uint8(2), uint32(53), []byte{0x10})  // an overwritten value
	f.Add(uint8(9), uint8(2), uint32(136), []byte{0x01}) // a terminator
	f.Fuzz(func(t *testing.T, n, mode uint8, pos uint32, extra []byte) {
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "ns.log")
		// states[i] is the namespace after i records; ends[i] the log size;
		// frames[i-1] the key and value length of record i.
		states := []map[string]string{{}}
		ends := []int64{int64(len(headerLine("ns")))}
		var frames []fuzzFrame
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
				frames = append(frames, fuzzFrame{key: key})
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
				frames = append(frames, fuzzFrame{key: "k", prefix: true})
			default:
				val := strings.Repeat(fmt.Sprintf("v%d\n", i), i%4) + string(extra)
				if err := st.Put("ns", key, []byte(val)); err != nil {
					t.Fatal(err)
				}
				live[key] = val
				frames = append(frames, fuzzFrame{key: key, vlen: len(val)})
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
		bad := ""          // the live key whose value a flip damaged
		frameFlip := false // a flip in a frame header or terminator
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
			at := int64(pos) % size
			raw[at] ^= extra[0]
			for i, fr := range frames {
				if at >= ends[i+1] || at < ends[i] {
					continue
				}
				valueOff := ends[i+1] - 1 - int64(fr.vlen)
				if at < valueOff || at == ends[i+1]-1 {
					frameFlip = true
				} else if fr.liveAfter(frames[i+1:]) {
					bad = fr.key
				}
			}
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
			case mode%3 == 2 && int64(pos)%size >= ends[0] && !frameFlip:
				t.Fatalf("flipped value refused: %v", err)
			case frameFlip && !corrupt:
				t.Fatalf("flipped frame refused without a corruption error: %v", err)
			}
			return
		}
		defer st2.Close()
		if want == nil {
			t.Fatalf("log cut inside its header opened")
		}
		if frameFlip {
			t.Fatalf("log with a flipped frame header or terminator opened")
		}
		checkState(t, st2, want, bad)
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
		checkState(t, st3, want, bad)
	})
}

// fuzzFrame is one record FuzzReplay wrote: a put of vlen value bytes, a
// del (vlen 0), or (prefix) a delprefix.
type fuzzFrame struct {
	key    string
	vlen   int
	prefix bool
}

// liveAfter reports whether the value this put wrote survives the later
// frames.
func (fr fuzzFrame) liveAfter(later []fuzzFrame) bool {
	for _, l := range later {
		if l.key == fr.key || l.prefix && strings.HasPrefix(fr.key, l.key) {
			return false
		}
	}
	return true
}

// fuzzKeys mixes plain keys with keys a line-based format would split.
var fuzzKeys = []string{"k1", "k2", "j1/c/00000001", "with space", "new\nline", `"quoted"`, "k3"}

// checkState asserts that ns holds exactly the records of want. With bad
// set, that key's value is damaged: checkDamaged applies instead.
func checkState(t *testing.T, st Store, want map[string]string, bad string) {
	t.Helper()
	if bad != "" {
		checkDamaged(t, st, want, bad)
		return
	}
	if keys, err := st.Keys("ns"); err != nil || !slices.Equal(keys, slices.Sorted(maps.Keys(want))) {
		t.Fatalf("Keys = %q, %v; want the keys of %q", keys, err, want)
	}
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

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"image"
	"image/draw"
	"image/png"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_pixels.json")

const goldenFile = "testdata/golden_pixels.json"

// TestGoldenPixels pins the decoded pixels of every PNG this command writes
// and of three views of the million-task trace the pan-zoom benchmark
// explores. Digests cover width, height and RGBA values, not the encoded
// bytes, so an encoder change that keeps every pixel still passes.
func TestGoldenPixels(t *testing.T) {
	got := map[string]string{}

	*outDir, *format = t.TempDir(), "png"
	for _, run := range []func() error{fig3, fig4, fig5, fig89, fig11, fig12, fig13} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	pngs, err := filepath.Glob(filepath.Join(*outDir, "*.png"))
	if err != nil || len(pngs) == 0 {
		t.Fatalf("no figures written: %v", err)
	}
	for _, p := range pngs {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.Base(p)] = pixelDigest(t, f)
		f.Close()
	}

	// The pan-zoom trace at 1200x800: the full view, the sixth x4 zoom
	// toward the middle, and a half-window pan from there.
	s := workload.GenerateSchedule(workload.DefaultGenerateConfig(1_000_000))
	idx := render.BuildIndex(s)
	ext := s.Extent()
	width := ext.Span() / (1 << 12)
	zoom := core.Extent{Min: ext.Min + ext.Span()/2 - width/2}
	zoom.Max = zoom.Min + width
	pan := core.Extent{Min: zoom.Min + width/2, Max: zoom.Max + width/2}
	for name, win := range map[string]*core.Extent{"trace_full": nil, "trace_zoom6": &zoom, "trace_pan": &pan} {
		opt := render.Options{Mode: core.AlignedView, Labels: true, LOD: true, Window: win, Index: idx}
		var buf bytes.Buffer
		if err := render.Encode(&buf, "png", s, 1200, 800, opt); err != nil {
			t.Fatal(err)
		}
		got[name] = pixelDigest(t, &buf)
	}

	if *update {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: pixel digest %q, golden %q", name, got[name], want[name])
		}
	}
}

// pixelDigest decodes one PNG and hashes its size and RGBA pixels.
func pixelDigest(t *testing.T, r io.Reader) string {
	t.Helper()
	img, err := png.Decode(r)
	if err != nil {
		t.Fatal(err)
	}
	b := img.Bounds()
	rgba := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
	draw.Draw(rgba, rgba.Bounds(), img, b.Min, draw.Src)
	h := sha256.New()
	var size [8]byte
	binary.LittleEndian.PutUint32(size[:4], uint32(b.Dx()))
	binary.LittleEndian.PutUint32(size[4:], uint32(b.Dy()))
	h.Write(size[:])
	h.Write(rgba.Pix)
	return hex.EncodeToString(h.Sum(nil))
}

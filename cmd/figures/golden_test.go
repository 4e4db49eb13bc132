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

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/jedxml"
	"repro/internal/render"
	"repro/internal/sched"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_pixels.json")

const goldenFile = "testdata/golden_pixels.json"

// TestGoldenPixels pins every file this command writes and three views of
// the million-task trace the pan-zoom benchmark explores. PNG digests cover
// width, height and RGBA values, not the encoded bytes, so an encoder change
// that keeps every pixel still passes; the svg and pdf writers read no clock,
// so their bytes are pinned as they are, and so are the listings of figures
// 1, 2 and 6. Each rendered schedule is also pinned as its Jedule XML
// serialization (exact times and meta data), and one digest covers a small
// campaign over every registered scheduler.
func TestGoldenPixels(t *testing.T) {
	got := map[string]string{}

	*outDir = t.TempDir()
	for _, f := range []string{"png", "svg", "pdf"} {
		*format = f
		for _, run := range []func() error{fig3, fig4, fig5, fig89, fig11, fig12, fig13} {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, run := range []func() error{fig1, fig2, fig6} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(*outDir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no figures written: %v", err)
	}
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Ext(p) == ".png" {
			got[filepath.Base(p)] = pixelDigest(t, f)
		} else {
			got[filepath.Base(p)] = byteDigest(t, f)
		}
		f.Close()
	}
	for name, s := range figureSchedules(t) {
		var buf bytes.Buffer
		if err := jedxml.Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		got[name+".jed"] = byteDigest(t, &buf)
	}
	got["campaign_all_schedulers"] = campaignDigest(t)

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
			t.Errorf("%s: digest %q, golden %q", name, got[name], want[name])
		}
	}
}

// figureSchedules rebuilds every schedule this command renders, keyed by
// its output name without extension.
func figureSchedules(t *testing.T) map[string]*core.Schedule {
	t.Helper()
	out := map[string]*core.Schedule{"fig03_composite": figures.Fig3Composite()}
	f4, err := figures.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	out["fig04_cpa"], out["fig04_mcpa"] = f4.CPA, f4.MCPA
	f5, err := figures.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	out["fig05_cra"], out["fig05_cra_backfilled"] = f5.Schedule, f5.Backfilled
	f89, err := figures.Fig8And9()
	if err != nil {
		t.Fatal(err)
	}
	out["fig08_heft_flawed"], out["fig09_heft_realistic"] = f89.Flawed, f89.Realistic
	f11, err := figures.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	f12, err := figures.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	f13, err := figures.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	out["fig11_quicksort_random"] = f11.Schedule
	out["fig12_quicksort_inverse"] = f12.Schedule
	out["fig13_thunder"] = f13.Schedule
	return out
}

// campaignDigest runs the default campaign dimensions, cut to one replicate
// and the smallest sizes, over every registered scheduler, and hashes the
// cells in their checkpoint JSON form (exact float bits).
func campaignDigest(t *testing.T) string {
	t.Helper()
	cfg := campaign.DefaultConfig()
	cfg.DAGSizes, cfg.ClusterSizes = cfg.DAGSizes[:2], cfg.ClusterSizes[:1]
	cfg.Replicates = 1
	cfg.Algos = sched.List()
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Cells)
	if err != nil {
		t.Fatal(err)
	}
	return byteDigest(t, bytes.NewReader(b))
}

// byteDigest hashes a file's bytes.
func byteDigest(t *testing.T, r io.Reader) string {
	t.Helper()
	h := sha256.New()
	if _, err := io.Copy(h, r); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
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

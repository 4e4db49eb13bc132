package raster

import (
	"bytes"
	"image"
	"image/color"
	"image/jpeg"
	"image/png"
	"math"
	"testing"
	"testing/quick"
	"time"
)

var (
	red   = color.RGBA{255, 0, 0, 255}
	black = color.RGBA{0, 0, 0, 255}
	white = color.RGBA{255, 255, 255, 255}
)

func TestNewIsWhite(t *testing.T) {
	c := New(20, 10)
	if w, h := c.Size(); w != 20 || h != 10 {
		t.Fatalf("Size = %g x %g", w, h)
	}
	if c.At(0, 0) != white || c.At(19, 9) != white {
		t.Fatal("canvas not initialized white")
	}
	// Degenerate sizes are clamped.
	tiny := New(0, -5)
	if w, h := tiny.Size(); w != 1 || h != 1 {
		t.Fatalf("clamped size = %g x %g", w, h)
	}
}

func TestFillRect(t *testing.T) {
	c := New(20, 20)
	c.FillRect(5, 5, 10, 10, red)
	if c.At(5, 5) != red || c.At(14, 14) != red {
		t.Error("inside pixels not filled")
	}
	if c.At(4, 5) != white || c.At(15, 15) != white {
		t.Error("outside pixels touched")
	}
	// Clipping: fills beyond the canvas must not panic.
	c.FillRect(-100, -100, 1000, 1000, black)
	if c.At(0, 0) != black {
		t.Error("clipped fill missing")
	}
	// Degenerate fills are no-ops.
	c2 := New(10, 10)
	c2.FillRect(2, 2, 0, 5, red)
	c2.FillRect(2, 2, 5, -1, red)
	if c2.At(2, 2) != white {
		t.Error("degenerate fill drew pixels")
	}
}

func TestStrokeRect(t *testing.T) {
	c := New(20, 20)
	c.StrokeRect(2, 2, 10, 10, black, 1)
	if c.At(2, 2) != black || c.At(11, 11) != black {
		t.Error("corners not stroked")
	}
	if c.At(5, 5) != white {
		t.Error("interior should stay white")
	}
}

func TestLine(t *testing.T) {
	c := New(20, 20)
	c.Line(0, 0, 19, 19, black, 1)
	for i := 2; i < 18; i += 5 {
		if c.At(i, i) != black {
			t.Errorf("diagonal pixel (%d,%d) not drawn", i, i)
		}
	}
	c2 := New(20, 20)
	c2.Line(0, 10, 19, 10, red, 3)
	if c2.At(10, 10) != red || c2.At(10, 9) != red || c2.At(10, 11) != red {
		t.Error("thick line not widened")
	}
}

func TestTextDrawsInk(t *testing.T) {
	c := New(100, 20)
	c.Text(2, 2, "Hello 42", 8, black)
	ink := 0
	for y := 0; y < 20; y++ {
		for x := 0; x < 100; x++ {
			if c.At(x, y) == black {
				ink++
			}
		}
	}
	if ink < 40 {
		t.Fatalf("text drew only %d pixels", ink)
	}
}

func TestTextUnknownGlyphBox(t *testing.T) {
	c := New(20, 20)
	c.Text(0, 0, "é", 8, black) // é has no glyph: hollow box
	if c.At(0, 0) != black {
		t.Error("unknown glyph box corner missing")
	}
	if c.At(2, 3) != white {
		t.Error("unknown glyph box interior should be empty")
	}
}

func TestVerticalText(t *testing.T) {
	c := New(20, 60)
	c.VerticalText(2, 2, "UP", 8, black)
	ink := 0
	for y := 0; y < 60; y++ {
		for x := 0; x < 20; x++ {
			if c.At(x, y) == black {
				ink++
			}
		}
	}
	if ink < 15 {
		t.Fatalf("vertical text drew only %d pixels", ink)
	}
}

func TestFontMetrics(t *testing.T) {
	if FontScale(8) != 1 || FontScale(1) != 1 {
		t.Error("small sizes must scale 1")
	}
	if FontScale(16) != 2 || FontScale(24) != 3 {
		t.Errorf("FontScale(16)=%d FontScale(24)=%d", FontScale(16), FontScale(24))
	}
	if TextWidth("", 8) != 0 {
		t.Error("empty TextWidth should be 0")
	}
	if got := TextWidth("ab", 8); got != float64(2*GlyphAdvance-1) {
		t.Errorf("TextWidth(ab) = %g", got)
	}
	if TextHeight(8) != 7 {
		t.Errorf("TextHeight(8) = %g", TextHeight(8))
	}
	c := New(1, 1)
	if c.TextWidth("ab", 8) != TextWidth("ab", 8) || c.TextHeight(8) != TextHeight(8) {
		t.Error("canvas metric methods disagree with package functions")
	}
}

func TestGlyphTableWellFormed(t *testing.T) {
	for r, g := range glyphs {
		for row, line := range g {
			if len(line) != GlyphWidth {
				t.Errorf("glyph %q row %d has width %d", r, row, len(line))
			}
			for _, ch := range line {
				if ch != '#' && ch != '.' {
					t.Errorf("glyph %q contains invalid cell %q", r, ch)
				}
			}
		}
	}
	// Full printable ASCII coverage.
	for r := rune(32); r <= 126; r++ {
		if _, ok := glyphs[r]; !ok {
			t.Errorf("missing glyph for %q", r)
		}
	}
	// Distinguishable digits: no two digit glyphs identical.
	seen := map[[7]string]rune{}
	for r := '0'; r <= '9'; r++ {
		g := glyphs[r]
		if prev, dup := seen[g]; dup {
			t.Errorf("digits %q and %q share a glyph", prev, r)
		}
		seen[g] = r
	}
}

func TestEncodePNG(t *testing.T) {
	c := New(30, 20)
	c.FillRect(0, 0, 30, 20, red)
	var buf bytes.Buffer
	if err := c.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 30 || img.Bounds().Dy() != 20 {
		t.Fatalf("decoded bounds = %v", img.Bounds())
	}
	r, _, _, _ := img.At(10, 10).RGBA()
	if r>>8 != 255 {
		t.Error("decoded pixel wrong")
	}
}

func TestEncodeJPEG(t *testing.T) {
	c := New(30, 20)
	var buf bytes.Buffer
	if err := c.EncodeJPEG(&buf, 90); err != nil {
		t.Fatal(err)
	}
	if _, err := jpeg.Decode(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	c := New(10, 10)
	for _, name := range []string{"a.png", "b.jpg", "c.jpeg"} {
		if err := c.WriteFile(dir + "/" + name); err != nil {
			t.Errorf("WriteFile(%s): %v", name, err)
		}
	}
	if err := c.WriteFile(dir + "/bad.gif"); err == nil {
		t.Error("unsupported extension must error")
	}
	if err := c.WriteFile("/nonexistent-dir-xyz/f.png"); err == nil {
		t.Error("unwritable path must error")
	}
}

// Property: drawing never writes outside the canvas and never panics, for
// arbitrary (possibly degenerate or out-of-range) geometry.
func TestDrawingRobustnessProperty(t *testing.T) {
	f := func(x, y, w, h float64, lw uint8) bool {
		c := New(32, 32)
		col := color.RGBA{10, 20, 30, 255}
		c.FillRect(x, y, w, h, col)
		c.StrokeRect(x, y, w, h, col, float64(lw%5))
		c.Line(x, y, x+w, y+h, col, float64(lw%3))
		c.Text(x, y, "zz", 8, col)
		// At() out of bounds stays zero and in-bounds pixels are either
		// white or the drawing color.
		for py := -2; py < 34; py++ {
			for px := -2; px < 34; px++ {
				got := c.At(px, py)
				if px < 0 || py < 0 || px >= 32 || py >= 32 {
					if got != (color.RGBA{}) {
						return false
					}
					continue
				}
				if got != col && got != (color.RGBA{255, 255, 255, 255}) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: TextWidth is additive in string concatenation up to the
// inter-glyph gap, and monotone in length.
func TestTextWidthMonotoneProperty(t *testing.T) {
	f := func(a, b string, size uint8) bool {
		sz := float64(size%24) + 1
		wa := TextWidth(a, sz)
		wab := TextWidth(a+b, sz)
		return wab >= wa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClipSegment(t *testing.T) {
	// Fully inside: untouched.
	x1, y1, x2, y2, ok := clipSegment(1, 1, 5, 5, 0, 0, 10, 10)
	if !ok || x1 != 1 || y2 != 5 {
		t.Fatalf("inside clip = %g,%g %g,%g %v", x1, y1, x2, y2, ok)
	}
	// Crossing: clipped to the border.
	x1, _, x2, _, ok = clipSegment(-10, 5, 20, 5, 0, 0, 10, 10)
	if !ok || x1 != 0 || x2 != 10 {
		t.Fatalf("crossing clip = %g..%g %v", x1, x2, ok)
	}
	// Fully outside: rejected.
	if _, _, _, _, ok := clipSegment(-10, -10, -5, -5, 0, 0, 10, 10); ok {
		t.Fatal("outside segment accepted")
	}
	// Parallel outside: rejected.
	if _, _, _, _, ok := clipSegment(-1, 20, 5, 20, 0, 0, 10, 10); ok {
		t.Fatal("parallel outside accepted")
	}
}

func TestLineHugeCoordinatesFast(t *testing.T) {
	c := New(16, 16)
	done := make(chan struct{})
	go func() {
		c.Line(-1e300, 8, 1e300, 8, black, 1) // horizontal through the canvas
		c.Line(1e308, 1e308, 1.5e308, 1.5e308, black, 1)
		c.Line(math.NaN(), 0, 5, 5, black, 1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Line with huge coordinates did not terminate promptly")
	}
	if c.At(8, 8) != black {
		t.Fatal("clipped horizontal line missing")
	}
}

// checkEncodePNG encodes c and requires the decoded image to hold exactly
// the canvas's pixels, compared in PNG's non-premultiplied color model (for
// opaque pixels that is byte equality), and to be indexed exactly when the
// canvas has at most 256 colors, each opaque or fully transparent.
func checkEncodePNG(t *testing.T, c *Canvas) {
	t.Helper()
	var buf bytes.Buffer
	if err := c.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Image()
	if got.Bounds() != want.Bounds() {
		t.Fatalf("decoded bounds %v, canvas %v", got.Bounds(), want.Bounds())
	}
	colors := map[color.RGBA]bool{}
	exact := true
	b := want.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			px := want.RGBAAt(x, y)
			colors[px] = true
			exact = exact && (px.A == 0 || px.A == 0xff)
			if w, g := color.NRGBAModel.Convert(px), color.NRGBAModel.Convert(got.At(x, y)); w != g {
				t.Fatalf("pixel (%d,%d): canvas %v, decoded %v", x, y, w, g)
			}
		}
	}
	_, indexed := got.(*image.Paletted)
	if want := exact && len(colors) <= 256; indexed != want {
		t.Fatalf("%d colors, all opaque or transparent %v: decoded indexed %v, want %v",
			len(colors), exact, indexed, want)
	}
}

func TestEncodePNGIndexedOrRGBA(t *testing.T) {
	// ramp paints n pixels of distinct opaque colors in row order.
	ramp := func(c *Canvas, n int) {
		for i := 0; i < n; i++ {
			c.FillRect(float64(i%40), float64(i/40), 1, 1, color.RGBA{uint8(i), uint8(i >> 8), 0x55, 0xff})
		}
	}
	for name, draw := range map[string]func(c *Canvas){
		"white":             func(*Canvas) {},
		"few colors":        func(c *Canvas) { c.FillRect(3, 3, 10, 5, red); c.Line(0, 0, 39, 19, black, 1) },
		"transparent":       func(c *Canvas) { c.FillRect(0, 0, 40, 20, color.RGBA{}) },
		"translucent pixel": func(c *Canvas) { c.FillRect(5, 5, 1, 1, color.RGBA{0, 0, 100, 128}) },
		"256 colors":        func(c *Canvas) { ramp(c, 255) }, // plus the white background
		"257 colors":        func(c *Canvas) { ramp(c, 256) },
	} {
		t.Run(name, func(t *testing.T) {
			c := New(40, 20)
			draw(c)
			checkEncodePNG(t, c)
		})
	}
}

// FuzzEncodePNG draws random rectangles of random colors, translucent ones
// included, optionally over a ramp of more than 256 distinct colors, and
// checks that the PNG decodes to the canvas's pixels.
func FuzzEncodePNG(f *testing.F) {
	f.Fuzz(func(t *testing.T, w, h uint8, ramp uint16, rects []byte) {
		c := New(int(w%64)+1, int(h%64)+1)
		cw, _ := c.Size()
		for i := 0; i < int(ramp%1024); i++ {
			c.FillRect(float64(i%int(cw)), float64(i/int(cw)), 1, 1, color.RGBA{uint8(i), uint8(i >> 8), 0x55, 0xff})
		}
		for ; len(rects) >= 8; rects = rects[8:] {
			r := rects[:8]
			// image.RGBA is alpha-premultiplied: no channel exceeds alpha.
			a := r[7]
			col := color.RGBA{min(r[4], a), min(r[5], a), min(r[6], a), a}
			c.FillRect(float64(r[0]%70), float64(r[1]%70), float64(r[2]%70), float64(r[3]%70), col)
		}
		checkEncodePNG(t, c)
	})
}

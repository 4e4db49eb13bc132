// Package raster is a dependency-free software 2D canvas used by the Jedule
// renderer for its PNG and JPEG outputs (the bitmap half of the paper's
// command-line mode). It draws axis-aligned rectangles, lines, and text with
// an embedded 5x7 bitmap font onto an image.RGBA, and encodes the result
// with the stdlib image codecs. A frame of at most 256 opaque colors, as a
// Gantt chart has, goes to PNG as an indexed image at png.BestSpeed; any
// other frame goes as RGBA.
package raster

import (
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"image/png"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Canvas is a drawing surface backed by an image.RGBA. A canvas may be a
// clipped view of another canvas's pixels (see Sub); all drawing primitives
// route through FillRect, which discards pixels outside the clip rectangle.
type Canvas struct {
	img  *image.RGBA
	clip image.Rectangle
}

// New creates a canvas of the given pixel size filled with white.
func New(width, height int) *Canvas {
	if width < 1 {
		width = 1
	}
	if height < 1 {
		height = 1
	}
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	c := &Canvas{img: img, clip: img.Bounds()}
	c.FillRect(0, 0, float64(width), float64(height), color.RGBA{255, 255, 255, 255})
	return c
}

// Sub returns a canvas that draws into the same backing image but only
// touches pixels inside r (intersected with the receiver's own clip). It
// reports the full canvas size, so layout code positions elements exactly as
// on the parent; only the painted region differs. Two Sub canvases with
// non-overlapping rectangles never write the same pixel, so independent
// goroutines can rasterize disjoint bands of one image concurrently and the
// composite needs no copy.
func (c *Canvas) Sub(r image.Rectangle) *Canvas {
	return &Canvas{img: c.img, clip: r.Intersect(c.clip)}
}

// Clip returns the writable pixel region of the canvas.
func (c *Canvas) Clip() image.Rectangle { return c.clip }

// Size returns the canvas dimensions.
func (c *Canvas) Size() (w, h float64) {
	b := c.img.Bounds()
	return float64(b.Dx()), float64(b.Dy())
}

// Image exposes the backing image (for tests and encoders).
func (c *Canvas) Image() *image.RGBA { return c.img }

// At returns the pixel color at integer coordinates, transparent black when
// out of bounds.
func (c *Canvas) At(x, y int) color.RGBA {
	if !(image.Point{x, y}).In(c.img.Bounds()) {
		return color.RGBA{}
	}
	return c.img.RGBAAt(x, y)
}

// FillRect fills the axis-aligned rectangle with origin (x, y).
func (c *Canvas) FillRect(x, y, w, h float64, col color.RGBA) {
	if w <= 0 || h <= 0 {
		return
	}
	x0, y0 := int(math.Floor(x)), int(math.Floor(y))
	x1, y1 := int(math.Ceil(x+w)), int(math.Ceil(y+h))
	r := image.Rect(x0, y0, x1, y1).Intersect(c.clip)
	if r.Empty() {
		return
	}
	// Paint the first row pixel by pixel, then replicate it with copy:
	// memmove beats per-pixel offset arithmetic by an order of magnitude
	// on the wide fills (panel backgrounds, zoomed-in tasks) that dominate
	// rasterization time.
	rowLen := 4 * r.Dx()
	off := c.img.PixOffset(r.Min.X, r.Min.Y)
	first := c.img.Pix[off : off+rowLen]
	first[0], first[1], first[2], first[3] = col.R, col.G, col.B, col.A
	for n := 4; n < rowLen; n *= 2 {
		copy(first[n:], first[:n]) // double the painted prefix each step
	}
	for py := r.Min.Y + 1; py < r.Max.Y; py++ {
		off += c.img.Stride
		copy(c.img.Pix[off:off+rowLen], first)
	}
}

// StrokeRect outlines the rectangle with the given line width.
func (c *Canvas) StrokeRect(x, y, w, h float64, col color.RGBA, lw float64) {
	if w <= 0 || h <= 0 || lw <= 0 {
		return
	}
	c.FillRect(x, y, w, lw, col)      // top
	c.FillRect(x, y+h-lw, w, lw, col) // bottom
	c.FillRect(x, y, lw, h, col)      // left
	c.FillRect(x+w-lw, y, lw, h, col) // right
}

// Line draws a straight segment using a DDA walk; lw widens it into a
// square brush. The segment is clipped to the canvas first, so arbitrarily
// distant endpoints cost nothing. It is clipped to the full canvas, not the
// Sub clip rectangle: the walk must visit the same brush positions on every
// view of the image so that clipped bands compose pixel-identically.
func (c *Canvas) Line(x1, y1, x2, y2 float64, col color.RGBA, lw float64) {
	if lw < 1 {
		lw = 1
	}
	if math.IsNaN(x1) || math.IsNaN(y1) || math.IsNaN(x2) || math.IsNaN(y2) {
		return
	}
	// Clamp absurd coordinates before clipping: beyond this range the
	// Liang-Barsky parameters lose all floating-point precision anyway,
	// and no real chart addresses pixels that far out.
	const limit = 1e7
	x1 = math.Max(-limit, math.Min(limit, x1))
	y1 = math.Max(-limit, math.Min(limit, y1))
	x2 = math.Max(-limit, math.Min(limit, x2))
	y2 = math.Max(-limit, math.Min(limit, y2))
	w, h := c.Size()
	x1, y1, x2, y2, ok := clipSegment(x1, y1, x2, y2, -lw, -lw, w+lw, h+lw)
	if !ok {
		return
	}
	dx, dy := x2-x1, y2-y1
	steps := math.Max(math.Abs(dx), math.Abs(dy))
	if steps < 1 {
		steps = 1
	}
	sx, sy := dx/steps, dy/steps
	half := lw / 2
	x, y := x1, y1
	for i := 0.0; i <= steps; i++ {
		c.FillRect(x-half, y-half, lw, lw, col)
		x += sx
		y += sy
	}
}

// clipSegment clips (x1,y1)-(x2,y2) to the rectangle [minX,maxX]x[minY,maxY]
// with the Liang-Barsky algorithm; ok is false when nothing remains.
func clipSegment(x1, y1, x2, y2, minX, minY, maxX, maxY float64) (cx1, cy1, cx2, cy2 float64, ok bool) {
	dx, dy := x2-x1, y2-y1
	t0, t1 := 0.0, 1.0
	clip := func(p, q float64) bool {
		if p == 0 {
			return q >= 0 // parallel: inside iff q >= 0
		}
		r := q / p
		if p < 0 {
			if r > t1 {
				return false
			}
			if r > t0 {
				t0 = r
			}
		} else {
			if r < t0 {
				return false
			}
			if r < t1 {
				t1 = r
			}
		}
		return true
	}
	if !clip(-dx, x1-minX) || !clip(dx, maxX-x1) ||
		!clip(-dy, y1-minY) || !clip(dy, maxY-y1) {
		return 0, 0, 0, 0, false
	}
	return x1 + t0*dx, y1 + t0*dy, x1 + t1*dx, y1 + t1*dy, true
}

// Text draws s with its top-left corner at (x, y) using the embedded font.
func (c *Canvas) Text(x, y float64, s string, size float64, col color.RGBA) {
	scale := FontScale(size)
	px := int(math.Round(x))
	py := int(math.Round(y))
	for _, r := range s {
		g := glyphFor(r)
		for row := 0; row < GlyphHeight; row++ {
			for colI := 0; colI < GlyphWidth; colI++ {
				if g[row][colI] != '#' {
					continue
				}
				c.FillRect(float64(px+colI*scale), float64(py+row*scale),
					float64(scale), float64(scale), col)
			}
		}
		px += GlyphAdvance * scale
	}
}

// TextWidth reports the width Text would cover, satisfying the renderer's
// Canvas interface.
func (c *Canvas) TextWidth(s string, size float64) float64 { return TextWidth(s, size) }

// TextHeight reports the glyph height at the size.
func (c *Canvas) TextHeight(size float64) float64 { return TextHeight(size) }

// VerticalText draws s rotated 90 degrees counter-clockwise (reading
// bottom-to-top), with (x, y) the top-left of the rotated block. Used for
// the resource-axis label.
func (c *Canvas) VerticalText(x, y float64, s string, size float64, col color.RGBA) {
	scale := FontScale(size)
	px := int(math.Round(x))
	py := int(math.Round(y)) + int(TextWidth(s, size))
	for _, r := range s {
		g := glyphFor(r)
		for row := 0; row < GlyphHeight; row++ {
			for colI := 0; colI < GlyphWidth; colI++ {
				if g[row][colI] != '#' {
					continue
				}
				// rotate (col,row) -> (row, -col)
				c.FillRect(float64(px+row*scale), float64(py-colI*scale),
					float64(scale), float64(scale), col)
			}
		}
		py -= GlyphAdvance * scale
	}
}

// EncodePNG writes the canvas as PNG. A canvas of at most 256 colors,
// each opaque or fully transparent, is written as an indexed image at
// png.BestSpeed: a Gantt frame has few colors, and this encodes several
// times faster than RGBA at the default level, into fewer bytes. Any other
// canvas is written as RGBA at the default level, because a PLTE or tRNS
// entry is kept only for colors it carries exactly. Either way the decoded
// pixels are the canvas's.
func (c *Canvas) EncodePNG(w io.Writer) error {
	if p := c.paletted(); p != nil {
		enc := png.Encoder{CompressionLevel: png.BestSpeed}
		return enc.Encode(w, p)
	}
	return png.Encode(w, c.img)
}

// paletted returns the canvas as an indexed image whose palette lists its
// colors in order of first appearance, or nil when it holds more than 256
// colors or a pixel whose alpha is neither 0 nor 255. It reads each pixel
// as one word and reuses the previous index along runs, which cover most
// of a frame; only a change of color searches the palette.
func (c *Canvas) paletted() *image.Paletted {
	src := c.img.Pix
	idx := make([]uint8, len(src)/4)
	var words [256]uint32
	n := 0
	last := ^binary.LittleEndian.Uint32(src) // differs from the first pixel
	var li uint8
	for i := range idx {
		px := binary.LittleEndian.Uint32(src[4*i:])
		if px != last {
			j := slices.Index(words[:n], px)
			if j < 0 {
				if a := px >> 24; (a != 0 && a != 0xff) || n == len(words) {
					return nil
				}
				j, words[n] = n, px
				n++
			}
			last, li = px, uint8(j)
		}
		idx[i] = li
	}
	pal := make(color.Palette, n)
	for i, px := range words[:n] {
		pal[i] = color.RGBA{uint8(px), uint8(px >> 8), uint8(px >> 16), uint8(px >> 24)}
	}
	b := c.img.Bounds()
	return &image.Paletted{Pix: idx, Stride: b.Dx(), Rect: b, Palette: pal}
}

// EncodeJPEG writes the canvas as JPEG at the given quality (1..100).
func (c *Canvas) EncodeJPEG(w io.Writer, quality int) error {
	return jpeg.Encode(w, c.img, &jpeg.Options{Quality: quality})
}

// WriteFile encodes to the format implied by the file extension: .png or
// .jpg/.jpeg.
func (c *Canvas) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var encErr error
	switch strings.ToLower(filepath.Ext(path)) {
	case ".png":
		encErr = c.EncodePNG(f)
	case ".jpg", ".jpeg":
		encErr = c.EncodeJPEG(f, 92)
	default:
		encErr = fmt.Errorf("raster: unsupported extension %q (want .png, .jpg)", filepath.Ext(path))
	}
	if encErr != nil {
		f.Close()
		return encErr
	}
	return f.Close()
}

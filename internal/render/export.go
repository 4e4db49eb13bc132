package render

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pdf"
	"repro/internal/raster"
	"repro/internal/svg"
)

// ToFile renders the schedule to a file, choosing the backend from the file
// extension: .png and .jpg/.jpeg use the software rasterizer, .pdf the
// vector writer, .svg the SVG writer. This is the core of the command-line
// mode the paper describes.
func ToFile(path string, s *core.Schedule, width, height int, opt Options) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("render: %w", err)
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".png", ".jpg", ".jpeg":
		c := raster.New(width, height)
		Render(c, s, opt)
		return c.WriteFile(path)
	case ".pdf":
		c := pdf.New(float64(width), float64(height))
		Render(c, s, opt)
		return c.WriteFile(path)
	case ".svg":
		c := svg.New(float64(width), float64(height))
		Render(c, s, opt)
		return c.WriteFile(path)
	default:
		return fmt.Errorf("render: unsupported output format %q (want .png, .jpg, .pdf, .svg)",
			filepath.Ext(path))
	}
}

// Formats lists the supported output file extensions.
func Formats() []string { return []string{".png", ".jpg", ".jpeg", ".pdf", ".svg"} }

// EncodeFormats lists the formats Encode can stream (HTTP responses, pipes).
func EncodeFormats() []string { return []string{"png", "svg", "pdf"} }

// ContentType returns the MIME type of a streamable format name.
func ContentType(format string) (string, bool) {
	switch format {
	case "png":
		return "image/png", true
	case "svg":
		return "image/svg+xml", true
	case "pdf":
		return "application/pdf", true
	}
	return "", false
}

// Encode renders the schedule in the named format ("png", "svg", "pdf") to
// w. It is the single options-driven path behind every HTTP render and
// export endpoint: all formats negotiate the same Options, so a window or
// cluster selection applied to a PNG applies identically to a PDF.
//
// Encode does not validate: the caller must pass a schedule that
// core.Schedule.Validate accepts. The HTTP servers validate each session
// schedule once per revision (api.Session.ScheduleWithIndex), not on every
// request; ToFile, the one-shot command-line path, validates by itself.
func Encode(w io.Writer, format string, s *core.Schedule, width, height int, opt Options) error {
	encode := func(fn func() error) error {
		t0 := time.Now()
		err := fn()
		if opt.StageReport != nil {
			opt.StageReport("encode", time.Since(t0))
		}
		return err
	}
	switch format {
	case "png":
		c := raster.New(width, height)
		Render(c, s, opt)
		return encode(func() error { return c.EncodePNG(w) })
	case "svg":
		c := svg.New(float64(width), float64(height))
		Render(c, s, opt)
		return encode(func() error { return c.Encode(w) })
	case "pdf":
		c := pdf.New(float64(width), float64(height))
		Render(c, s, opt)
		return encode(func() error { return c.Encode(w) })
	default:
		return fmt.Errorf("render: unsupported stream format %q (want %s)",
			format, strings.Join(EncodeFormats(), ", "))
	}
}

package api

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/colormap"
	"repro/internal/core"
	"repro/internal/render"
)

// Size bounds for stateless renders; a query can not ask the server for an
// arbitrarily large raster.
const (
	minDim             = 16
	maxDim             = 8192
	defaultW, defaultH = 1000, 600
)

// viewParams is the fully-negotiated, per-request view state: the whole
// state of the interactive view (viewer.go), derived from query parameters.
type viewParams struct {
	Width, Height int
	Opts          render.Options
	// LODSet records whether the request carried an explicit lod= value;
	// when absent the server's -lod default applies. encodeImage
	// canonicalizes the effective value into the ETag'd query either way,
	// so lod=1, lod=true, and a matching server default share validators —
	// and a restart with a different default cannot serve stale 304s.
	LODSet bool
	// Gray selects the grayscale map; Colors (colors=, canonical form)
	// recolors task types on top of it.
	Gray   bool
	Colors string
}

// parseViewParams derives render options from a request's query parameters.
// Unknown values are errors (reported as 400 by the handlers); absent
// values take the command-line mode's defaults.
func parseViewParams(q url.Values) (*viewParams, error) {
	vp := &viewParams{Width: defaultW, Height: defaultH}
	vp.Opts.Labels = true

	var err error
	if vp.Width, err = intParam(q, "width", defaultW); err != nil {
		return nil, err
	}
	if vp.Height, err = intParam(q, "height", defaultH); err != nil {
		return nil, err
	}
	for _, d := range []struct {
		name string
		v    int
	}{{"width", vp.Width}, {"height", vp.Height}} {
		if d.v < minDim || d.v > maxDim {
			return nil, fmt.Errorf("%s %d out of range [%d, %d]", d.name, d.v, minDim, maxDim)
		}
	}

	switch mode := q.Get("mode"); mode {
	case "", "aligned":
		vp.Opts.Mode = core.AlignedView
	case "scaled":
		vp.Opts.Mode = core.ScaledView
	default:
		return nil, fmt.Errorf("bad mode %q (want aligned or scaled)", mode)
	}

	if win := q.Get("window"); win != "" {
		parts := strings.Split(win, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad window %q (want min,max)", win)
		}
		lo, err0 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		hi, err1 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err0 != nil || err1 != nil || !(lo < hi) ||
			math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return nil, fmt.Errorf("bad window %q (want finite min,max with min < max)", win)
		}
		vp.Opts.Window = &core.Extent{Min: lo, Max: hi}
	}

	if raw := q.Get("clusters"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("bad clusters value %q", part)
			}
			vp.Opts.Clusters = append(vp.Opts.Clusters, id)
		}
	}

	for _, b := range []struct {
		name string
		dst  *bool
	}{
		{"labels", &vp.Opts.Labels},
		{"composites", &vp.Opts.Composites},
		{"legend", &vp.Opts.Legend},
		{"meta", &vp.Opts.ShowMeta},
		{"gray", &vp.Gray},
		{"lod", &vp.Opts.LOD},
	} {
		if err := boolParam(q, b.name, b.dst); err != nil {
			return nil, err
		}
	}
	vp.LODSet = q.Get("lod") != ""
	var recolor map[string]colormap.Colors
	if raw := q.Get("colors"); raw != "" {
		if recolor, vp.Colors, err = parseColors(raw); err != nil {
			return nil, err
		}
	}
	if vp.Gray || recolor != nil {
		m := colormap.Default()
		if vp.Gray {
			m = m.Grayscale()
		}
		for typ, c := range recolor {
			m.SetType(typ, c)
		}
		vp.Opts.Map = m
	}
	vp.Opts.Title = q.Get("title")
	return vp, nil
}

// parseColors reads colors=type:bg[:fg];... (hex, fg black when absent,
// each type once) and its canonical form — entries sorted, lower-case hex —
// so every spelling of one recoloring shares an ETag.
func parseColors(raw string) (map[string]colormap.Colors, string, error) {
	byType := map[string]colormap.Colors{}
	var canon []string
	for _, entry := range strings.Split(raw, ";") {
		parts := strings.Split(entry, ":")
		if _, dup := byType[parts[0]]; dup || len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
			return nil, "", fmt.Errorf("bad colors entry %q (want type:rrggbb[:rrggbb], each type once)", entry)
		}
		c := colormap.Colors{FG: colormap.RGB(0, 0, 0)}
		var err error
		if c.BG, err = colormap.ParseRGB(parts[1]); err == nil && len(parts) == 3 {
			c.FG, err = colormap.ParseRGB(parts[2])
		}
		if err != nil {
			return nil, "", fmt.Errorf("bad colors entry %q: %v", entry, err)
		}
		byType[parts[0]] = c
		canon = append(canon, parts[0]+":"+colormap.FormatRGB(c.BG)+":"+colormap.FormatRGB(c.FG))
	}
	sort.Strings(canon)
	return byType, strings.Join(canon, ";"), nil
}

func intParam(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, raw)
	}
	return v, nil
}

func boolParam(q url.Values, name string, dst *bool) error {
	raw := q.Get(name)
	if raw == "" {
		return nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return fmt.Errorf("bad %s %q (want a boolean)", name, raw)
	}
	*dst = v
	return nil
}

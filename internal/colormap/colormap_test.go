package colormap

import (
	"bytes"
	"image/color"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// paperFig2 is the color map listing from Figure 2 of the paper.
const paperFig2 = `<cmap name="standard_map">
  <conf name="min_font_size_label" value="11"/>
  <conf name="font_size_label" value="13"/>
  <conf name="font_size_axes" value="12"/>
  <task id="computation">
    <color type="fg" rgb="FFFFFF"/>
    <color type="bg" rgb="0000FF"/>
  </task>
  <task id="transfer">
    <color type="fg" rgb="000000"/>
    <color type="bg" rgb="f10000"/>
  </task>
  <composite>
    <task id="computation"/>
    <task id="transfer"/>
    <color type="fg" rgb="FFFFFF"/>
    <color type="bg" rgb="ff6200"/>
  </composite>
</cmap>
`

func TestReadPaperFigure2(t *testing.T) {
	m, err := Read(strings.NewReader(paperFig2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "standard_map" {
		t.Errorf("name = %q", m.Name)
	}
	if m.ConfInt("font_size_label", 0) != 13 {
		t.Errorf("font_size_label = %d", m.ConfInt("font_size_label", 0))
	}
	comp := m.Lookup("computation")
	if comp.BG != RGB(0, 0, 255) || comp.FG != RGB(255, 255, 255) {
		t.Errorf("computation colors = %+v", comp)
	}
	xfer := m.Lookup("transfer")
	if xfer.BG != RGB(0xf1, 0, 0) {
		t.Errorf("transfer bg = %+v", xfer.BG)
	}
	// The composite entry applies to {computation, transfer} in any order.
	cc := m.LookupComposite([]string{"transfer", "computation"})
	if cc.BG != RGB(0xff, 0x62, 0x00) {
		t.Errorf("composite bg = %+v", cc.BG)
	}
	// A different member set falls back to the composite default.
	other := m.LookupComposite([]string{"computation", "io"})
	if other != m.CompositeDefault {
		t.Errorf("unmatched composite = %+v, want default", other)
	}
}

func TestLookupDefault(t *testing.T) {
	m := Default()
	if got := m.Lookup("nonexistent-type"); got != m.Default {
		t.Errorf("default lookup = %+v", got)
	}
	if got := m.Lookup("computation"); got.BG != RGB(0, 0, 255) {
		t.Errorf("computation = %+v", got)
	}
}

func TestLookupCompositeDedup(t *testing.T) {
	m := Default()
	// Duplicate member types collapse: {comp, comp, transfer} == {comp, transfer}.
	got := m.LookupComposite([]string{"computation", "computation", "transfer"})
	want := m.LookupComposite([]string{"computation", "transfer"})
	if got != want {
		t.Fatalf("dedup failed: %+v vs %+v", got, want)
	}
}

func TestParseRGB(t *testing.T) {
	cases := []struct {
		in   string
		want color.RGBA
		ok   bool
	}{
		{"FFFFFF", RGB(255, 255, 255), true},
		{"0000FF", RGB(0, 0, 255), true},
		{"f10000", RGB(241, 0, 0), true},
		{"#ff6200", RGB(255, 98, 0), true},
		{" ff6200 ", RGB(255, 98, 0), true},
		{"xyzxyz", color.RGBA{}, false},
		{"fff", color.RGBA{}, false},
		{"", color.RGBA{}, false},
	}
	for _, tc := range cases {
		got, err := ParseRGB(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseRGB(%q) err = %v", tc.in, err)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseRGB(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	f := func(r, g, b uint8) bool {
		c := RGB(r, g, b)
		back, err := ParseRGB(FormatRGB(c))
		return err == nil && back == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := Default()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != m.Name {
		t.Errorf("name: %q vs %q", back.Name, m.Name)
	}
	if !reflect.DeepEqual(back.Conf, m.Conf) {
		t.Errorf("conf: %+v vs %+v", back.Conf, m.Conf)
	}
	if !reflect.DeepEqual(back.ByType, m.ByType) {
		t.Errorf("types: %+v vs %+v", back.ByType, m.ByType)
	}
	if !reflect.DeepEqual(back.Composites, m.Composites) {
		t.Errorf("composites: %+v vs %+v", back.Composites, m.Composites)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct{ name, doc, wants string }{
		{"garbage", "no xml", "decode"},
		{"bad rgb", `<cmap name="m"><task id="x"><color type="bg" rgb="zz"/></task></cmap>`, "bad rgb"},
		{"bad color type", `<cmap name="m"><task id="x"><color type="mid" rgb="aabbcc"/></task></cmap>`, "unknown color type"},
		{"composite too small", `<cmap name="m"><composite><task id="x"/><color type="bg" rgb="aabbcc"/></composite></cmap>`, ">=2 member"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.wants) {
				t.Fatalf("err = %v, want %q", err, tc.wants)
			}
		})
	}
}

func TestGrayscale(t *testing.T) {
	g := Default().Grayscale()
	for typ, c := range g.ByType {
		if c.BG.R != c.BG.G || c.BG.G != c.BG.B {
			t.Errorf("type %q bg not gray: %+v", typ, c.BG)
		}
		if c.FG.R != c.FG.G || c.FG.G != c.FG.B {
			t.Errorf("type %q fg not gray: %+v", typ, c.FG)
		}
	}
	if !strings.HasSuffix(g.Name, "-gray") {
		t.Errorf("name = %q", g.Name)
	}
	// Original untouched.
	if c := Default().Lookup("computation"); c.BG != RGB(0, 0, 255) {
		t.Error("Grayscale mutated the source map")
	}
	// Luma ordering preserved: white stays brighter than blue.
	if g.Lookup("computation").FG.R <= g.Lookup("computation").BG.R {
		t.Error("white fg should stay brighter than blue bg after grayscale")
	}
}

func TestPaletteDistinct(t *testing.T) {
	n := 8
	m := Palette(n, func(i int) string { return "app" + string(rune('0'+i)) })
	seen := map[color.RGBA]string{}
	for i := 0; i < n; i++ {
		key := "app" + string(rune('0'+i))
		c := m.Lookup(key).BG
		if prev, dup := seen[c]; dup {
			t.Fatalf("apps %s and %s share color %+v", prev, key, c)
		}
		seen[c] = key
	}
	// Palette keeps the standard entries too.
	if m.Lookup("computation").BG != RGB(0, 0, 255) {
		t.Error("palette lost standard entries")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := Default()
	c := m.Clone()
	c.SetType("computation", Colors{FG: RGB(1, 2, 3), BG: RGB(4, 5, 6)})
	c.SetConf("font_size_label", "99")
	c.AddComposite(Colors{}, "a", "b")
	if m.Lookup("computation").BG != RGB(0, 0, 255) {
		t.Error("Clone shares ByType")
	}
	if m.ConfInt("font_size_label", 0) != 13 {
		t.Error("Clone shares Conf")
	}
	if len(m.Composites) != 1 {
		t.Error("Clone shares Composites")
	}
}

func TestConfHelpers(t *testing.T) {
	m := &Map{}
	if m.ConfInt("missing", 7) != 7 {
		t.Error("ConfInt default")
	}
	m.SetConf("x", "not-a-number")
	if m.ConfInt("x", 7) != 7 {
		t.Error("ConfInt non-numeric fallback")
	}
	m.SetConf("x", "3")
	if m.ConfInt("x", 7) != 3 || len(m.Conf) != 1 {
		t.Error("SetConf overwrite")
	}
}

// FuzzReadWrite checks that whatever Read accepts survives Write and a
// second Read unchanged.
func FuzzReadWrite(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		m, err := Read(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("Write of an accepted map: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of Write's output: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip differs\n got %+v\nwant %+v", back, m)
		}
	})
}

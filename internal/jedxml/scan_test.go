package jedxml

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// sameSchedule reports whether a and b are equal, comparing task times by
// their bits so that NaN equals itself and -0 differs from 0.
func sameSchedule(a, b *core.Schedule) bool {
	if !reflect.DeepEqual(a.Meta, b.Meta) || !reflect.DeepEqual(a.Clusters, b.Clusters) ||
		len(a.Tasks) != len(b.Tasks) || (a.Tasks == nil) != (b.Tasks == nil) {
		return false
	}
	for i := range a.Tasks {
		x, y := a.Tasks[i], b.Tasks[i]
		if math.Float64bits(x.Start) != math.Float64bits(y.Start) ||
			math.Float64bits(x.End) != math.Float64bits(y.End) {
			return false
		}
		x.Start, x.End, y.Start, y.End = 0, 0, 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// checkAgainstOracle applies the two rules that tie Read to the
// encoding/xml reader it replaced: what Read accepts, the oracle accepts
// with an equal schedule; what the oracle accepts and Read rejects is
// outside the supported subset.
func checkAgainstOracle(t *testing.T, doc []byte) (got *core.Schedule, err, oracleErr error) {
	t.Helper()
	got, err = Read(bytes.NewReader(doc))
	want, oracleErr := oracleRead(doc)
	var unsupported *UnsupportedError
	switch {
	case err == nil && oracleErr != nil:
		t.Fatalf("Read accepts what encoding/xml rejects (%v)\ndoc: %q", oracleErr, doc)
	case err == nil && !sameSchedule(got, want):
		t.Fatalf("schedules differ\n got %+v\nwant %+v\ndoc: %q", got, want, doc)
	case err != nil && oracleErr == nil && !errors.As(err, &unsupported):
		t.Fatalf("Read rejects what encoding/xml accepts, and not as unsupported: %v\ndoc: %q", err, doc)
	}
	return got, err, oracleErr
}

// doc wraps a task body in a one-cluster document.
func doc(nodes string) string {
	return `<grid_schedule><grid_info><clusters><cluster id="0" hosts="4"/></clusters></grid_info>` +
		`<node_infos>` + nodes + `</node_infos></grid_schedule>`
}

const task = `<node_statistics><node_property name="id" value="t"/><node_property name="type" value="x"/>` +
	`<node_property name="start_time" value="0"/><node_property name="end_time" value="1"/>` +
	`<configuration><conf_property name="cluster_id" value="0"/><host_lists><hosts start="0" nb="1"/></host_lists></configuration>` +
	`</node_statistics>`

// acceptCases covers the accepted subset.
var acceptCases = []struct{ name, doc string }{
	{"figure 1", paperFig1},
	{"minimal", doc(task)},
	{"single quotes", strings.ReplaceAll(doc(task), `"`, `'`)},
	{"quote of the other kind", doc(strings.Replace(task, `value="x"`, `value="it's"`, 1))},
	{"entities", doc(strings.Replace(task, `value="x"`, `value="&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x43;"`, 1))},
	{"char refs", doc(strings.Replace(task, `value="x"`, `value="&#x1F600;&#0065;&#xd800;"`, 1))},
	{"newlines in values", doc(strings.Replace(task, `value="x"`, "value=\"a\r\nb\rc\r\r\nd&#13;\n\"", 1))},
	{"unicode", doc(strings.Replace(task, `value="x"`, `value="Žluťoučký kůň 🐎"`, 1))},
	{"comments and declaration", `<?xml version="1.0" encoding="utf-8"?><!-- a - b? -> no --><!---->` +
		strings.Replace(doc(task), `<node_infos>`, `<node_infos><!-- inside --><?xml version='1.0'?>`, 1)},
	{"declaration without encoding", `<?xml version="1.0"?>` + doc(task)},
	{"bom and text before root", "\ufeff  text, &amp; fine " + doc(task)},
	{"unknown elements and attributes", strings.Replace(doc(task), `<node_infos>`,
		`<node_infos extra="1"><junk a="b"><node_statistics/><deep><deeper/></deep></junk>`, 1)},
	{"skipped children of known elements", doc(strings.Replace(task, `<node_property name="id" value="t"/>`,
		`<node_property name="id" value="t"><x/>text<y><z/></y></node_property>`, 1))},
	{"node_statistics outside node_infos", strings.Replace(doc(task), `<node_infos>`, `<node_statistics/><node_infos>`, 1)},
	{"repeated sections", `<grid_schedule><meta_info><meta name="a" value="1"/></meta_info>` +
		`<grid_info><clusters><cluster id="0" hosts="4"/></clusters></grid_info>` +
		`<meta_info><meta name="b" value="2"/></meta_info>` +
		`<grid_info><clusters><cluster id="1" hosts="2" name="two"/></clusters></grid_info>` +
		`<node_infos>` + task + `</node_infos><node_infos>` + strings.Replace(task, `"t"`, `"u"`, 1) + `</node_infos></grid_schedule>`},
	{"whitespace everywhere", "<grid_schedule\n><grid_info ><clusters\t><cluster id = ' 0 ' hosts=\"\t4\r\n\" /></clusters\n></grid_info>" +
		"<node_infos>" + task + "</node_infos   ></grid_schedule >"},
	{"attributes without separating space", doc(strings.Replace(task, `name="id" value="t"`, `name="id"value="t"`, 1))},
	{"missing int attribute", doc(strings.Replace(task, `start="0" `, ``, 1))},
	{"repeated attribute", doc(strings.Replace(task, `nb="1"`, `nb="3" nb="1"`, 1))},
	{"repeated properties", doc(strings.Replace(task, `<node_property name="type" value="x"/>`,
		`<node_property name="type" value="x"/><node_property name="id" value="t2"/><node_property value="nameless"/><node_property name="p"/>`, 1))},
	{"non-contiguous allocation", doc(strings.Replace(task, `<hosts start="0" nb="1"/>`, `<hosts start="0" nb="1"/><hosts start="2" nb="2"/>`, 1))},
	{"special floats", doc(strings.NewReplacer(`value="0"`, `value="-0"`, `value="1"`, `value="NaN"`).Replace(task))},
	{"trailing garbage after root", doc(task) + "<<<&bogus; ]]>"},
	{"xmlns default namespace", strings.Replace(doc(task), `<grid_schedule>`, `<grid_schedule xmlns="urn:x">`, 1)},
}

// rejectCases covers each syntax error the scanner reports and the
// conversion errors, in the order the decoder reports them.
var rejectCases = []struct{ name, doc string }{
	{"garbage", "not xml at all"},
	{"empty root", `<grid_schedule/>`},
	{"empty", ""},
	{"wrong root", `<schedule/>`},
	{"end tag before root", `</grid_schedule>`},
	{"eof in root", `<grid_schedule><node_infos>`},
	{"eof after <", `<grid_schedule><`},
	{"eof in tag", `<grid_schedule><node_infos a="1"`},
	{"eof in value", "<grid_schedule><node_infos a=\"1\n"},
	{"eof in name", `<grid_schedule><node_inf`},
	{"mismatched end", "<grid_schedule>\n<a>\n</b>"},
	{"bad element name", "<grid_schedule>\n< a/>"},
	{"name starting with digit", "<grid_schedule>\n<1a/>"},
	{"bad end name", "<grid_schedule>\n</ >"},
	{"junk in end tag", "<grid_schedule>\n</grid_schedule x>"},
	{"bad self-close", "<grid_schedule>\n<a/ >"},
	{"bad attribute name", "<grid_schedule>\n<a \"b\"/>"},
	{"attribute without =", "<grid_schedule>\n<a b c/>"},
	{"unquoted value", "<grid_schedule>\n<a b=c/>"},
	{"< in value", "<grid_schedule>\n<a b=\"<\"/>"},
	{"unknown entity", "<grid_schedule>\n<a b=\"&nbsp;\"/>"},
	{"entity without semicolon", "<grid_schedule>\n<a b=\"&amp\"/>"},
	{"bare ampersand", "<grid_schedule>\n<a b=\"a & b\"/>"},
	{"empty entity", "<grid_schedule>\n<a b=\"&;\"/>"},
	{"empty char ref", "<grid_schedule>\n<a b=\"&#;\"/>"},
	{"char ref out of range", "<grid_schedule>\n<a b=\"&#x110000;\"/>"},
	{"char ref overflow", "<grid_schedule>\n<a b=\"&#99999999999999999999999;\"/>"},
	{"char ref to NUL", "<grid_schedule>\n<a b=\"&#0;\"/>"},
	{"char ref to U+FFFE", "<grid_schedule>\n<a b=\"x\n&#xFFFE;\"/>"},
	{"control char in value", "<grid_schedule>\n<a b=\"\x01\n\"/>"},
	{"control char in text", "<grid_schedule>\n\x02\n<a/>"},
	{"U+FFFF in text", "<grid_schedule>\n\uffff<a/>"},
	{"bad char then bad entity", "<grid_schedule>\n\x02\n&x;<a/>"},
	{"]]> in text", "<grid_schedule>\n]]><a/>"},
	{"bad comment opener", "<grid_schedule>\n<!-x>"},
	{"-- in comment", "<grid_schedule>\n<!-- a -- b -->"},
	{"eof in comment", "<grid_schedule>\n<!-- a "},
	{"bad <![", "<grid_schedule>\n<![CDAT x"},
	{"eof in declaration", `<?xml version="1.0"`},
	{"xml 1.1", `<?xml version="1.1"?><grid_schedule/>`},
	{"bad PI target", "<?\n?>"},
	{"bad start_time", doc(strings.Replace(task, `value="0"`, `value="abc"`, 1))},
	{"bad end_time", doc(strings.Replace(task, `value="1"`, `value="x"`, 1))},
	{"bad cluster_id", doc(strings.Replace(task, `name="cluster_id" value="0"`, `name="cluster_id" value=" 0"`, 1))},
	{"missing cluster_id", doc(strings.Replace(task, `<conf_property name="cluster_id" value="0"/>`, ``, 1))},
	{"negative cluster_id", doc(strings.Replace(task, `name="cluster_id" value="0"`, `name="cluster_id" value="-1"`, 1))},
	{"property error before configuration error", doc(strings.NewReplacer(
		`<configuration>`, `<configuration/><configuration>`, `value="0"/><node_property name="end_time"`,
		`value="z"/><node_property name="end_time"`).Replace(task))},
	{"configuration error names final id", doc(strings.Replace(task, `</node_statistics>`,
		`<configuration/><node_property name="id" value="last"/></node_statistics>`, 1))},
	{"first task error wins", doc(strings.Replace(task, `value="t"`, `value="a"/><node_property name="start_time" value="?"`, 1) +
		strings.Replace(task, `value="0"/><host_lists>`, `value="q"/><host_lists>`, 1))},
	{"syntax error after conversion error", doc(strings.Replace(task, `value="0"`, `value="abc"`, 1) + "<x y=z/>")},
	{"bad int attribute", doc(strings.Replace(task, `nb="1"`, `nb="one"`, 1))},
	{"blank int attribute", doc(strings.Replace(task, `nb="1"`, `nb="  "`, 1))},
	{"int attribute overflow", doc(strings.Replace(task, `nb="1"`, `nb="99999999999999999999"`, 1))},
	{"bad int in cluster", `<grid_schedule><grid_info><clusters><cluster id="zero" hosts="4"/></clusters></grid_info></grid_schedule>`},
	{"int error before later syntax error", doc(strings.Replace(task, `nb="1"`, `nb="x"`, 1)) + `<`},
	{"no clusters", `<grid_schedule><node_infos></node_infos></grid_schedule>`},
	{"undefined cluster", doc(strings.Replace(task, `name="cluster_id" value="0"`, `name="cluster_id" value="9"`, 1))},
}

func TestReadMatchesDecoder(t *testing.T) {
	for _, tc := range acceptCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err, _ := checkAgainstOracle(t, []byte(tc.doc)); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range rejectCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err, oracleErr := checkAgainstOracle(t, []byte(tc.doc))
			if err == nil {
				t.Fatal("Read accepted the document")
			}
			if err.Error() != oracleErr.Error() {
				t.Fatalf("error differs from the decoder's\n got %v\nwant %v", err, oracleErr)
			}
		})
	}
}

func TestReadUnsupported(t *testing.T) {
	cases := []struct{ name, doc, construct string }{
		{"doctype", `<!DOCTYPE grid_schedule>` + doc(task), "DOCTYPE declaration"},
		{"entity declaration", "<!ENTITY x 'y'>" + doc(task), "markup declaration <!ENTITY"},
		{"cdata", strings.Replace(doc(task), `<node_infos>`, `<node_infos><![CDATA[x]]>`, 1), "CDATA section"},
		{"processing instruction", `<?xml-stylesheet href="s.xsl"?>` + doc(task), "processing instruction <?xml-stylesheet"},
		{"prefixed element", strings.Replace(doc(task), `<node_infos>`, `<j:x xmlns:j="urn:j"/><node_infos>`, 1), `prefixed name "j:x"`},
		{"prefixed attribute", strings.Replace(doc(task), `<cluster id`, `<cluster xml:lang="en" id`, 1), `prefixed name "xml:lang"`},
		{"non-ASCII name", strings.Replace(doc(task), `<node_infos>`, `<tâche/><node_infos>`, 1), `non-ASCII name "tâche"`},
		{"declared encoding", `<?xml version="1.0" encoding="ISO-8859-1"?>` + doc(task), `encoding "ISO-8859-1"`},
		{"invalid UTF-8", "<grid_schedule>\n<!-- \xff -->", "non-UTF-8 input"},
		{"UTF-16", "\xff\xfe<\x00g\x00", "non-UTF-8 input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err, _ := checkAgainstOracle(t, []byte(tc.doc))
			var u *UnsupportedError
			if !errors.As(err, &u) {
				t.Fatalf("err = %v, want an *UnsupportedError", err)
			}
			if u.Construct != tc.construct {
				t.Fatalf("construct = %q, want %q", u.Construct, tc.construct)
			}
		})
	}
}

// Read's per-document work is a handful of slices and maps plus the task
// strings and slices; per task it allocates the id, the allocation and its
// host ranges, not the attribute strings the reflection decoder made.
func TestReadAllocations(t *testing.T) {
	s := core.NewSingleCluster("c", 64)
	for i := 0; i < 1000; i++ {
		s.Add("t"+string(rune('a'+i%26))+string(rune('a'+i/26%26))+string(rune('a'+i/676)), "computation", float64(i), float64(i)+1.5, i%60, 4)
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := parse(data); err != nil {
			t.Fatal(err)
		}
	})
	if perTask := allocs / 1000; perTask > 3.5 {
		t.Fatalf("%.1f allocations per task, want at most 3.5", perTask)
	}
}

func FuzzReadDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkAgainstOracle(t, doc)
	})
}

func FuzzRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Read(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatalf("Write of an accepted schedule: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of Write's output: %v\n%s", err, buf.Bytes())
		}
		if !sameSchedule(back, s) {
			t.Fatalf("round trip differs\n got %+v\nwant %+v", back, s)
		}
	})
}

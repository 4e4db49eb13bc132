package jedxml

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/core"
)

// UnsupportedError reports input that may be well-formed XML but lies
// outside the subset Read accepts (see the package documentation).
type UnsupportedError struct {
	Construct string // what was found, e.g. "DOCTYPE declaration"
	Line      int    // 1-based line where it starts
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("jedxml: unsupported XML on line %d: %s", e.Line, e.Construct)
}

// Byte classes of the scanner's tables.
const (
	nameASCII = 1 // a name byte other than ':'
	nameOther = 2 // ':' or a byte of a multi-byte character

	special = 1 // a byte the value and text loops must look at
)

var (
	nameClass [256]uint8 // byte classes of XML names, 0 ends a name
	textClass [256]uint8 // special bytes of character data
	attrClass [256]uint8 // special bytes of quoted attribute values
)

func init() {
	for c := 0; c < 256; c++ {
		switch {
		case 'A' <= c && c <= 'Z', 'a' <= c && c <= 'z', '0' <= c && c <= '9',
			c == '_', c == '.', c == '-':
			nameClass[c] = nameASCII
		case c == ':' || c >= utf8.RuneSelf:
			nameClass[c] = nameOther
		}
		if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
			textClass[c], attrClass[c] = special, special
		}
	}
	// 0xEF leads the encodings of U+FFFE and U+FFFF, the two code points
	// valid UTF-8 can hold that XML forbids.
	for _, c := range []byte{'<', '&', '>', 0xEF} {
		textClass[c] = special
	}
	for _, c := range []byte{'<', '&', '"', '\'', '\r', 0xEF} {
		attrClass[c] = special
	}
}

// Token kinds returned by scanner.next.
const (
	tokStart = iota
	tokEnd
	tokEOF
)

type attr struct{ name, value []byte }

// scanner reads one Jedule XML document held in memory and builds the
// schedule while it goes. Errors it reports as *xml.SyntaxError carry the
// message and line encoding/xml would report for the same input.
type scanner struct {
	data []byte
	pos  int // next byte to read

	// The tag next returned last. Names are slices of data; attribute
	// values are slices of data or, when they needed decoding, of vbuf.
	name  []byte
	attrs []attr
	empty bool // the start tag closed itself (<name .../>)
	vbuf  []byte

	skipStack [][]byte
	interned  map[string]string

	s       *core.Schedule
	nodes   int   // node_statistics elements seen
	taskErr error // first error of Read's task conversion, in task order

	hosts  []core.HostRange  // of the configuration being read
	allocs []core.Allocation // of the task being read
}

// parse reads a complete Jedule XML document.
func parse(data []byte) (*core.Schedule, error) {
	sc := &scanner{data: data, s: &core.Schedule{}, interned: map[string]string{}}
	if !utf8.Valid(data) {
		p := 0
		for p < len(data) {
			r, n := utf8.DecodeRune(data[p:])
			if r == utf8.RuneError && n == 1 {
				break
			}
			p += n
		}
		return nil, &UnsupportedError{Construct: "non-UTF-8 input", Line: sc.line(p)}
	}
	if err := sc.document(); err != nil {
		if _, ok := err.(*UnsupportedError); ok {
			return nil, err
		}
		return nil, fmt.Errorf("jedxml: decode: %w", err)
	}
	if sc.taskErr != nil {
		return nil, sc.taskErr
	}
	if err := sc.s.Validate(); err != nil {
		return nil, fmt.Errorf("jedxml: invalid schedule: %w", err)
	}
	return sc.s, nil
}

// line returns the 1-based line of byte offset p.
func (sc *scanner) line(p int) int {
	return 1 + bytes.Count(sc.data[:p], []byte{'\n'})
}

// syntaxError reports msg with the line of offset p, the position up to
// which encoding/xml would have consumed the input.
func (sc *scanner) syntaxError(p int, msg string) error {
	return &xml.SyntaxError{Msg: msg, Line: sc.line(p)}
}

func (sc *scanner) eof() error { return sc.syntaxError(len(sc.data), "unexpected EOF") }

func (sc *scanner) unsupported(p int, construct string) error {
	return &UnsupportedError{Construct: construct, Line: sc.line(p)}
}

// document reads the root element and everything in it. Input after the
// root's end tag is not read, as encoding/xml's Decode does not read it.
func (sc *scanner) document() error {
	tok, err := sc.next()
	switch {
	case err != nil:
		return err
	case tok == tokEOF:
		return io.EOF
	case tok == tokEnd:
		return sc.syntaxError(sc.pos, "unexpected end element </"+string(sc.name)+">")
	case string(sc.name) != "grid_schedule":
		return fmt.Errorf("expected element type <grid_schedule> but have <%s>", sc.name)
	}
	return sc.root()
}

// next reads up to and including the next start or end tag. Character
// data, comments and the XML declaration in between are checked and
// dropped.
func (sc *scanner) next() (int, error) {
	d := sc.data
	for {
		if err := sc.text(); err != nil {
			return 0, err
		}
		p := sc.pos // at '<' or the end of the input
		if p == len(d) {
			return tokEOF, nil
		}
		if p+1 == len(d) {
			return 0, sc.eof()
		}
		switch d[p+1] {
		case '/':
			return tokEnd, sc.endTag(p + 2)
		case '?':
			if err := sc.procInst(p + 2); err != nil {
				return 0, err
			}
		case '!':
			if err := sc.markup(p + 2); err != nil {
				return 0, err
			}
		default:
			return tokStart, sc.startTag(p + 1)
		}
	}
}

// text checks the character data starting at pos and advances to the next
// '<' or the end of the input.
func (sc *scanner) text() error {
	d := sc.data
	start, p := sc.pos, sc.pos
	bad := rune(-1) // first character outside XML's Char production
	for p < len(d) {
		c := d[p]
		if textClass[c] == 0 {
			p++
			continue
		}
		switch c {
		case '<':
			sc.pos = p
			return sc.badChar(p, bad)
		case '&':
			r, q, err := sc.entity(p)
			if err != nil {
				return err
			}
			if bad < 0 && !inCharRange(r) {
				bad = r
			}
			p = q
		case '>':
			if p-start >= 2 && d[p-1] == ']' && d[p-2] == ']' {
				return sc.syntaxError(p+1, "unescaped ]]> not in CDATA section")
			}
			p++
		case 0xEF:
			if r := reservedRune(d[p:]); bad < 0 && r >= 0 {
				bad = r
			}
			p++
		default: // a control character
			if bad < 0 {
				bad = rune(c)
			}
			p++
		}
	}
	sc.pos = p
	return sc.badChar(p, bad)
}

func (sc *scanner) badChar(p int, r rune) error {
	if r < 0 {
		return nil
	}
	return sc.syntaxError(p, fmt.Sprintf("illegal character code %U", r))
}

// reservedRune returns U+FFFE or U+FFFF if b starts with its encoding, and
// -1 otherwise.
func reservedRune(b []byte) rune {
	if len(b) >= 3 && b[0] == 0xEF && b[1] == 0xBF && (b[2] == 0xBE || b[2] == 0xBF) {
		return 0xFFFE + rune(b[2]-0xBE)
	}
	return -1
}

// inCharRange reports whether r is in XML's Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// entity decodes the reference at d[p] == '&' and returns its character
// and the offset after it: one of the five predefined entities, or a
// decimal (&#N;) or hexadecimal (&#xH;) character reference.
func (sc *scanner) entity(p int) (rune, int, error) {
	d := sc.data
	q := p + 1
	if q == len(d) {
		return 0, 0, sc.eof()
	}
	if d[q] == '#' {
		q++
		base := 10
		if q < len(d) && d[q] == 'x' {
			base = 16
			q++
		}
		digits := q
		for q < len(d) && (isDigit(d[q]) || base == 16 && isHexLetter(d[q])) {
			q++
		}
		if q == len(d) {
			return 0, 0, sc.eof()
		}
		if d[q] != ';' {
			return 0, 0, sc.syntaxError(q, "invalid character entity "+string(d[p:q])+" (no semicolon)")
		}
		n, err := strconv.ParseUint(string(d[digits:q]), base, 64)
		if err != nil || n > utf8.MaxRune {
			return 0, 0, sc.syntaxError(q+1, "invalid character entity "+string(d[p:q+1]))
		}
		r := rune(n)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError // a surrogate decodes as U+FFFD
		}
		return r, q + 1, nil
	}
	for q < len(d) && nameClass[d[q]] != 0 {
		q++
	}
	if q == len(d) {
		return 0, 0, sc.eof()
	}
	if d[q] != ';' {
		return 0, 0, sc.syntaxError(q, "invalid character entity "+string(d[p:q])+" (no semicolon)")
	}
	var r rune
	switch string(d[p+1 : q]) {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return 0, 0, sc.syntaxError(q+1, "invalid character entity "+string(d[p:q+1]))
	}
	return r, q + 1, nil
}

func isDigit(c byte) bool     { return '0' <= c && c <= '9' }
func isHexLetter(c byte) bool { return 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// xmlName reads the name starting at p and returns its end; ok is false
// when no name starts there. Names are ASCII and unprefixed.
func (sc *scanner) xmlName(p int) (end int, ok bool, err error) {
	d := sc.data
	q, class := p, uint8(0)
	for q < len(d) && nameClass[d[q]] != 0 {
		class |= nameClass[d[q]]
		q++
	}
	if q == len(d) {
		return 0, false, sc.eof()
	}
	if q == p {
		return p, false, nil
	}
	name := d[p:q]
	if class&nameOther != 0 {
		if bytes.IndexByte(name, ':') >= 0 {
			return 0, false, sc.unsupported(p, fmt.Sprintf("prefixed name %q", name))
		}
		return 0, false, sc.unsupported(p, fmt.Sprintf("non-ASCII name %q", name))
	}
	if c := name[0]; isDigit(c) || c == '.' || c == '-' {
		return 0, false, sc.syntaxError(q, "invalid XML name: "+string(name))
	}
	return q, true, nil
}

// space returns the offset of the first byte at or after p that is not
// XML white space.
func (sc *scanner) space(p int) int {
	d := sc.data
	for p < len(d) {
		switch d[p] {
		case ' ', '\t', '\n', '\r':
			p++
		default:
			return p
		}
	}
	return p
}

// startTag reads the start tag whose name begins at p, just after '<'.
func (sc *scanner) startTag(p int) error {
	d := sc.data
	end, ok, err := sc.xmlName(p)
	if err != nil {
		return err
	}
	if !ok {
		return sc.syntaxError(p, "expected element name after <")
	}
	sc.name, sc.attrs, sc.empty, sc.vbuf = d[p:end], sc.attrs[:0], false, sc.vbuf[:0]
	p = end
	for {
		p = sc.space(p)
		if p == len(d) {
			return sc.eof()
		}
		switch d[p] {
		case '/':
			if p+1 == len(d) {
				return sc.eof()
			}
			if d[p+1] != '>' {
				return sc.syntaxError(p+2, "expected /> in element")
			}
			sc.empty, sc.pos = true, p+2
			return nil
		case '>':
			sc.pos = p + 1
			return nil
		}
		end, ok, err := sc.xmlName(p)
		if err != nil {
			return err
		}
		if !ok {
			return sc.syntaxError(p, "expected attribute name in element")
		}
		a := attr{name: d[p:end]}
		p = sc.space(end)
		if p == len(d) {
			return sc.eof()
		}
		if d[p] != '=' {
			return sc.syntaxError(p+1, "attribute name without = in element")
		}
		p = sc.space(p + 1)
		if p == len(d) {
			return sc.eof()
		}
		if q := d[p]; q != '"' && q != '\'' {
			return sc.syntaxError(p+1, "unquoted or missing attribute value in element")
		}
		if a.value, p, err = sc.attrValue(p); err != nil {
			return err
		}
		sc.attrs = append(sc.attrs, a)
	}
}

// attrValue reads the quoted value whose opening quote is at p and
// returns the decoded value and the offset after the closing quote. A
// value without references or carriage returns is a slice of the input;
// any other is decoded into vbuf, with "\r\n" and a lone '\r' read as
// '\n' as encoding/xml reads them.
func (sc *scanner) attrValue(p int) ([]byte, int, error) {
	d := sc.data
	quote := d[p]
	p++
	start := p
	for p < len(d) && attrClass[d[p]] == 0 {
		p++
	}
	if p < len(d) && d[p] == quote {
		return d[start:p], p + 1, nil
	}
	vstart := len(sc.vbuf)
	sc.vbuf = append(sc.vbuf, d[start:p]...)
	bad := rune(-1)
	for p < len(d) {
		c := d[p]
		if attrClass[c] == 0 {
			sc.vbuf = append(sc.vbuf, c)
			p++
			continue
		}
		switch c {
		case quote:
			if err := sc.badChar(p+1, bad); err != nil {
				return nil, 0, err
			}
			return sc.vbuf[vstart:], p + 1, nil
		case '"', '\'':
			sc.vbuf = append(sc.vbuf, c)
			p++
		case '<':
			return nil, 0, sc.syntaxError(p+1, "unescaped < inside quoted string")
		case '&':
			r, q, err := sc.entity(p)
			if err != nil {
				return nil, 0, err
			}
			if bad < 0 && !inCharRange(r) {
				bad = r
			}
			sc.vbuf = utf8.AppendRune(sc.vbuf, r)
			p = q
		case '\r':
			sc.vbuf = append(sc.vbuf, '\n')
			p++
			if p < len(d) && d[p] == '\n' {
				p++
			}
		case 0xEF:
			if r := reservedRune(d[p:]); bad < 0 && r >= 0 {
				bad = r
			}
			sc.vbuf = append(sc.vbuf, c)
			p++
		default: // a control character
			if bad < 0 {
				bad = rune(c)
			}
			sc.vbuf = append(sc.vbuf, c)
			p++
		}
	}
	if err := sc.badChar(p, bad); err != nil {
		return nil, 0, err
	}
	return nil, 0, sc.eof()
}

// endTag reads the end tag whose name begins at p, just after "</".
func (sc *scanner) endTag(p int) error {
	d := sc.data
	end, ok, err := sc.xmlName(p)
	if err != nil {
		return err
	}
	if !ok {
		return sc.syntaxError(p, "expected element name after </")
	}
	sc.name = d[p:end]
	p = sc.space(end)
	if p == len(d) {
		return sc.eof()
	}
	if d[p] != '>' {
		return sc.syntaxError(p+1, "invalid characters between </"+string(sc.name)+" and >")
	}
	sc.pos = p + 1
	return nil
}

// procInst reads the processing instruction whose target begins at p,
// just after "<?". Only the XML declaration is accepted, and only for
// version 1.0 and the UTF-8 encoding.
func (sc *scanner) procInst(p int) error {
	d := sc.data
	end, ok, err := sc.xmlName(p)
	if err != nil {
		return err
	}
	if !ok {
		return sc.syntaxError(p, "expected target name after <?")
	}
	if target := string(d[p:end]); target != "xml" {
		return sc.unsupported(p, fmt.Sprintf("processing instruction <?%s", target))
	}
	body := sc.space(end)
	n := bytes.Index(d[body:], []byte("?>"))
	if n < 0 {
		return sc.eof()
	}
	content := string(d[body : body+n])
	if ver := declParam("version", content); ver != "" && ver != "1.0" {
		return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := declParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return sc.unsupported(p, fmt.Sprintf("encoding %q", enc))
	}
	sc.pos = body + n + 2
	return nil
}

// declParam returns the quoted value of param in the body of an XML
// declaration, or "" if there is none. It finds the value exactly where
// encoding/xml finds it: after the first "param=" followed by a quote.
func declParam(param, s string) string {
	param += "="
	for i := 0; i < len(s); {
		k := strings.Index(s[i:], param)
		if k < 0 || i+k+len(param) >= len(s) {
			return ""
		}
		i += k + len(param)
		if q := s[i]; q == '"' || q == '\'' {
			v, _, ok := strings.Cut(s[i+1:], string(q))
			if !ok {
				return ""
			}
			return v
		}
		i++
	}
	return ""
}

// markup reads the construct starting with "<!" whose next byte is at p.
// Only comments are accepted.
func (sc *scanner) markup(p int) error {
	d := sc.data
	if p == len(d) {
		return sc.eof()
	}
	switch d[p] {
	case '-':
		if p+1 == len(d) {
			return sc.eof()
		}
		if d[p+1] != '-' {
			return sc.syntaxError(p+2, "invalid sequence <!- not part of <!--")
		}
		body := p + 2
		n := bytes.Index(d[body:], []byte("--"))
		if n < 0 || body+n+2 == len(d) {
			return sc.eof()
		}
		if end := body + n + 2; d[end] != '>' {
			return sc.syntaxError(end+1, `invalid sequence "--" not allowed in comments`)
		}
		sc.pos = body + n + 3
		return nil
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if p+1+i == len(d) {
				return sc.eof()
			}
			if d[p+1+i] != "CDATA["[i] {
				return sc.syntaxError(p+2+i, "invalid <![ sequence")
			}
		}
		return sc.unsupported(p, "CDATA section")
	}
	if bytes.HasPrefix(d[p:], []byte("DOCTYPE")) {
		return sc.unsupported(p, "DOCTYPE declaration")
	}
	end := p
	for end < len(d) && nameClass[d[end]] != 0 {
		end++
	}
	return sc.unsupported(p, fmt.Sprintf("markup declaration <!%s", d[p:end]))
}

// child reads up to the next child start tag of the element named open and
// reports true, or through open's end tag and reports false.
func (sc *scanner) child(open []byte) (bool, error) {
	tok, err := sc.next()
	if err != nil {
		return false, err
	}
	switch tok {
	case tokStart:
		return true, nil
	case tokEnd:
		if !bytes.Equal(sc.name, open) {
			return false, sc.syntaxError(sc.pos, "element <"+string(open)+"> closed by </"+string(sc.name)+">")
		}
		return false, nil
	}
	return false, sc.eof()
}

// skip reads the rest of the element whose start tag next returned last.
func (sc *scanner) skip() error {
	if sc.empty {
		return nil
	}
	open := append(sc.skipStack[:0], sc.name)
	for len(open) > 0 {
		more, err := sc.child(open[len(open)-1])
		if err != nil {
			return err
		}
		if !more {
			open = open[:len(open)-1]
		} else if !sc.empty {
			open = append(open, sc.name)
		}
	}
	sc.skipStack = open
	return nil
}

// children calls fn for each child start tag of the element whose start
// tag next returned last, then reads through that element's end tag. fn
// must read its child through the child's end tag.
func (sc *scanner) children(fn func() error) error {
	if sc.empty {
		return nil
	}
	open := sc.name
	for {
		more, err := sc.child(open)
		if !more {
			return err
		}
		if err := fn(); err != nil {
			return err
		}
	}
}

// root reads the document element. Its readers mirror the struct tree
// Write encodes, and skip every element that tree does not name.
func (sc *scanner) root() error {
	return sc.children(func() error {
		switch string(sc.name) {
		case "meta_info":
			return sc.children(func() error {
				if string(sc.name) == "meta" {
					name, value := sc.nameValue()
					sc.s.Meta = append(sc.s.Meta, core.Property{Name: string(name), Value: string(value)})
				}
				return sc.skip()
			})
		case "grid_info":
			return sc.children(func() error {
				if string(sc.name) != "clusters" {
					return sc.skip()
				}
				return sc.children(func() error {
					if string(sc.name) == "cluster" {
						if err := sc.cluster(); err != nil {
							return err
						}
					}
					return sc.skip()
				})
			})
		case "node_infos":
			return sc.children(func() error {
				if string(sc.name) != "node_statistics" {
					return sc.skip()
				}
				return sc.node()
			})
		}
		return sc.skip()
	})
}

func (sc *scanner) cluster() error {
	var c core.Cluster
	for _, a := range sc.attrs {
		var err error
		switch string(a.name) {
		case "id":
			c.ID, err = attrInt(a.value)
		case "hosts":
			c.Hosts, err = attrInt(a.value)
		case "name":
			c.Name = string(a.value)
		}
		if err != nil {
			return err
		}
	}
	sc.s.Clusters = append(sc.s.Clusters, c)
	return nil
}

// node reads one node_statistics element into a task. Errors in its
// properties and configurations are kept, not returned, so that a later
// syntax error still wins as it does for a decode-then-convert reader;
// like that reader, a task reports a bad property before a bad
// configuration, whatever their order in the document.
func (sc *scanner) node() error {
	i := sc.nodes
	sc.nodes++
	t := core.Task{}
	var propErr, confErr error
	sc.allocs = sc.allocs[:0]
	err := sc.children(func() error {
		switch string(sc.name) {
		case "node_property":
			sc.property(&t, i, &propErr)
		case "configuration":
			a, bad, err := sc.configuration()
			switch {
			case err != nil:
				return err
			case bad == nil:
				sc.allocs = append(sc.allocs, a)
			case confErr == nil:
				confErr = bad
			}
			return nil
		}
		return sc.skip()
	})
	if err != nil {
		return err
	}
	if sc.taskErr == nil {
		switch {
		case propErr != nil:
			sc.taskErr = propErr
		case confErr != nil:
			sc.taskErr = fmt.Errorf("jedxml: task %q: %w", t.ID, confErr)
		}
	}
	if len(sc.allocs) > 0 {
		t.Allocations = append([]core.Allocation(nil), sc.allocs...)
	}
	sc.s.Tasks = append(sc.s.Tasks, t)
	return nil
}

// property reads the attributes of a node_property of task number i into
// t and keeps the first conversion error in *firstErr.
func (sc *scanner) property(t *core.Task, i int, firstErr *error) {
	name, value := sc.nameValue()
	switch string(name) {
	case "id":
		t.ID = string(value)
	case "type":
		t.Type = sc.intern(value)
	case "start_time", "end_time":
		v, err := strconv.ParseFloat(string(value), 64)
		if err != nil && *firstErr == nil {
			*firstErr = fmt.Errorf("jedxml: task %d: bad %s %q: %w", i, name, value, err)
		}
		if string(name) == "start_time" {
			t.Start = v
		} else {
			t.End = v
		}
	default:
		t.Properties = append(t.Properties, core.Property{Name: sc.intern(name), Value: string(value)})
	}
}

// configuration reads one configuration element. bad is the conversion
// error of the allocation, which the caller prefixes with the task id.
func (sc *scanner) configuration() (a core.Allocation, bad, err error) {
	a.Cluster = -1
	sc.hosts = sc.hosts[:0]
	err = sc.children(func() error {
		switch string(sc.name) {
		case "conf_property":
			name, value := sc.nameValue()
			// host_nb is informational; the host_lists entries are
			// authoritative.
			if string(name) == "cluster_id" && bad == nil {
				v, err := strconv.Atoi(string(value))
				if err != nil {
					bad = fmt.Errorf("bad cluster_id %q: %w", value, err)
				}
				a.Cluster = v
			}
		case "host_lists":
			return sc.children(func() error {
				if string(sc.name) == "hosts" {
					if err := sc.hostRange(); err != nil {
						return err
					}
				}
				return sc.skip()
			})
		}
		return sc.skip()
	})
	if err != nil {
		return a, nil, err
	}
	if bad == nil && a.Cluster < 0 {
		bad = fmt.Errorf("configuration without cluster_id")
	}
	if len(sc.hosts) > 0 {
		a.Hosts = append([]core.HostRange(nil), sc.hosts...)
	}
	return a, bad, nil
}

func (sc *scanner) hostRange() error {
	var h core.HostRange
	for _, a := range sc.attrs {
		var err error
		switch string(a.name) {
		case "start":
			h.Start, err = attrInt(a.value)
		case "nb":
			h.N, err = attrInt(a.value)
		}
		if err != nil {
			return err
		}
	}
	sc.hosts = append(sc.hosts, h)
	return nil
}

// nameValue returns the name and value attributes of a key/value element;
// a missing one is empty and a repeated one takes its last value.
func (sc *scanner) nameValue() (name, value []byte) {
	for _, a := range sc.attrs {
		switch string(a.name) {
		case "name":
			name = a.value
		case "value":
			value = a.value
		}
	}
	return name, value
}

// intern returns b as a string, one copy per distinct value in a document.
func (sc *scanner) intern(b []byte) string {
	if s, ok := sc.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	sc.interned[s] = s
	return s
}

// attrInt parses an integer attribute the way encoding/xml fills an int
// field: empty is 0, otherwise the value is trimmed of white space and
// parsed in base 10.
func attrInt(v []byte) (int, error) {
	if len(v) == 0 {
		return 0, nil
	}
	if len(v) <= 9 { // cannot overflow an int of any size
		n := 0
		for _, c := range v {
			if !isDigit(c) {
				goto slow
			}
			n = n*10 + int(c-'0')
		}
		return n, nil
	}
slow:
	n, err := strconv.ParseInt(strings.TrimSpace(string(v)), 10, strconv.IntSize)
	return int(n), err
}

// Package jedxml reads and writes the Jedule XML schedule format shown in
// Figure 1 of the paper. A document has three sections:
//
//	<grid_schedule>
//	  <meta_info>                     schedule-level key/value pairs (§II-C.2)
//	    <meta name="..." value="..."/>
//	  </meta_info>
//	  <grid_info>                     the clusters (defined "in the header")
//	    <info name="nb_clusters" value="2"/>
//	    <clusters>
//	      <cluster id="0" hosts="8" name="cluster-0"/>
//	    </clusters>
//	  </grid_info>
//	  <node_infos>                    one node_statistics element per task
//	    <node_statistics>
//	      <node_property name="id" value="1"/>
//	      <node_property name="type" value="computation"/>
//	      <node_property name="start_time" value="0.000"/>
//	      <node_property name="end_time" value="0.310"/>
//	      <configuration>             one per cluster the task touches
//	        <conf_property name="cluster_id" value="0"/>
//	        <conf_property name="host_nb" value="8"/>
//	        <host_lists>
//	          <hosts start="0" nb="8"/>   possibly several (non-contiguous)
//	        </host_lists>
//	      </configuration>
//	    </node_statistics>
//	  </node_infos>
//	</grid_schedule>
//
// Additional node_property entries beyond the four standard ones round-trip
// into Task.Properties, which the interactive mode shows on click.
//
// Read accepts this subset of XML 1.0:
//
//   - elements and attributes, with either quote style;
//   - the five predefined entities and numeric character references, with
//     "\r\n" and a lone '\r' in attribute values read as '\n';
//   - comments, and an XML declaration whose encoding is UTF-8 or absent;
//   - elements and attributes the format does not name, which are skipped;
//   - repeated meta_info and grid_info sections, whose entries append;
//   - an empty int attribute, read as 0; other int attributes are trimmed
//     of white space before parsing.
//
// Within the subset Read accepts and rejects exactly what encoding/xml's
// decoder accepts and rejects for the same document, reports the same
// syntax errors, and builds the same schedule. Input outside it — a
// DOCTYPE or other markup declaration, a CDATA section, a processing
// instruction other than the XML declaration, a prefixed (namespaced) or
// non-ASCII name, or input that is not UTF-8 — gets an *UnsupportedError
// naming the construct. Nothing after the root element's end tag is read.
//
// The package also hosts the pluggable parser registry the paper promises
// ("one can also extend Jedule with a different parser"): see Register,
// Formats, and ReadFormat. A CSV parser is registered as "csv".
package jedxml

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"repro/internal/core"
)

// xml document mirror types, which Write encodes

type xmlDoc struct {
	XMLName xml.Name  `xml:"grid_schedule"`
	Meta    *xmlMeta  `xml:"meta_info"`
	Grid    xmlGrid   `xml:"grid_info"`
	Nodes   []xmlNode `xml:"node_infos>node_statistics"`
}

type xmlMeta struct {
	Entries []xmlKV `xml:"meta"`
}

type xmlKV struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

type xmlGrid struct {
	Infos    []xmlKV      `xml:"info"`
	Clusters []xmlCluster `xml:"clusters>cluster"`
}

type xmlCluster struct {
	ID    int    `xml:"id,attr"`
	Hosts int    `xml:"hosts,attr"`
	Name  string `xml:"name,attr,omitempty"`
}

type xmlNode struct {
	Properties []xmlKV   `xml:"node_property"`
	Configs    []xmlConf `xml:"configuration"`
}

type xmlConf struct {
	Properties []xmlKV    `xml:"conf_property"`
	Hosts      []xmlHosts `xml:"host_lists>hosts"`
}

type xmlHosts struct {
	Start int `xml:"start,attr"`
	Nb    int `xml:"nb,attr"`
}

// Read parses a Jedule XML document and validates the resulting schedule.
// It reads r to the end before parsing.
func Read(r io.Reader) (*core.Schedule, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("jedxml: decode: %w", err)
	}
	return parse(buf.Bytes())
}

// Write serializes the schedule as an indented Jedule XML document.
func Write(w io.Writer, s *core.Schedule) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("jedxml: refusing to write invalid schedule: %w", err)
	}
	doc := xmlDoc{}
	if len(s.Meta) > 0 {
		doc.Meta = &xmlMeta{}
		for _, p := range s.Meta {
			doc.Meta.Entries = append(doc.Meta.Entries, xmlKV{p.Name, p.Value})
		}
	}
	doc.Grid.Infos = []xmlKV{{Name: "nb_clusters", Value: strconv.Itoa(len(s.Clusters))}}
	for _, c := range s.Clusters {
		doc.Grid.Clusters = append(doc.Grid.Clusters, xmlCluster{ID: c.ID, Hosts: c.Hosts, Name: c.Name})
	}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		n := xmlNode{Properties: []xmlKV{
			{"id", t.ID},
			{"type", t.Type},
			{"start_time", formatFloat(t.Start)},
			{"end_time", formatFloat(t.End)},
		}}
		for _, p := range t.Properties {
			n.Properties = append(n.Properties, xmlKV{p.Name, p.Value})
		}
		for _, a := range t.Allocations {
			cf := xmlConf{Properties: []xmlKV{
				{"cluster_id", strconv.Itoa(a.Cluster)},
				{"host_nb", strconv.Itoa(a.HostCount())},
			}}
			for _, r := range a.Hosts {
				cf.Hosts = append(cf.Hosts, xmlHosts{Start: r.Start, Nb: r.N})
			}
			n.Configs = append(n.Configs, cf)
		}
		doc.Nodes = append(doc.Nodes, n)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("jedxml: encode: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// formatFloat prints the shortest decimal string that round-trips to the
// same float64, so Write/Read round-trips are exact.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ReadFile loads and parses a schedule file.
func ReadFile(path string) (*core.Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(data)
}

// WriteFile serializes the schedule to a file.
func WriteFile(path string, s *core.Schedule) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParserFunc turns a byte stream into a schedule. Implementations of custom
// input formats register themselves under a format name.
type ParserFunc func(io.Reader) (*core.Schedule, error)

var parsers = map[string]ParserFunc{}

// Register installs a named parser. Registering an existing name replaces
// the previous parser.
func Register(name string, p ParserFunc) {
	parsers[name] = p
}

// Formats lists the registered parser names, sorted.
func Formats() []string {
	out := make([]string, 0, len(parsers))
	for k := range parsers {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ReadFormat parses with the named registered parser.
func ReadFormat(name string, r io.Reader) (*core.Schedule, error) {
	p, ok := parsers[name]
	if !ok {
		return nil, fmt.Errorf("jedxml: unknown input format %q (have %v)", name, Formats())
	}
	return p(r)
}

func init() {
	Register("jedule", Read)
	Register("csv", ReadCSV)
}

package jedxml

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strconv"

	"repro/internal/core"
)

// oracleRead is the reflection-based reader Read replaced: encoding/xml
// decodes the document into the mirror types, which are then copied into a
// schedule. Tests compare Read against it.
func oracleRead(data []byte) (*core.Schedule, error) {
	var doc xmlDoc
	dec := xml.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("jedxml: decode: %w", err)
	}
	s := &core.Schedule{}
	if doc.Meta != nil {
		for _, kv := range doc.Meta.Entries {
			s.Meta = append(s.Meta, core.Property{Name: kv.Name, Value: kv.Value})
		}
	}
	for _, c := range doc.Grid.Clusters {
		s.Clusters = append(s.Clusters, core.Cluster{ID: c.ID, Name: c.Name, Hosts: c.Hosts})
	}
	for i, n := range doc.Nodes {
		t := core.Task{}
		for _, p := range n.Properties {
			switch p.Name {
			case "id":
				t.ID = p.Value
			case "type":
				t.Type = p.Value
			case "start_time":
				v, err := strconv.ParseFloat(p.Value, 64)
				if err != nil {
					return nil, fmt.Errorf("jedxml: task %d: bad start_time %q: %w", i, p.Value, err)
				}
				t.Start = v
			case "end_time":
				v, err := strconv.ParseFloat(p.Value, 64)
				if err != nil {
					return nil, fmt.Errorf("jedxml: task %d: bad end_time %q: %w", i, p.Value, err)
				}
				t.End = v
			default:
				t.Properties = append(t.Properties, core.Property{Name: p.Name, Value: p.Value})
			}
		}
		for _, cf := range n.Configs {
			a := core.Allocation{Cluster: -1}
			for _, p := range cf.Properties {
				switch p.Name {
				case "cluster_id":
					v, err := strconv.Atoi(p.Value)
					if err != nil {
						return nil, fmt.Errorf("jedxml: task %q: bad cluster_id %q: %w", t.ID, p.Value, err)
					}
					a.Cluster = v
				case "host_nb":
					// informational; the host_lists entries are authoritative
				}
			}
			if a.Cluster < 0 {
				return nil, fmt.Errorf("jedxml: task %q: configuration without cluster_id", t.ID)
			}
			for _, h := range cf.Hosts {
				a.Hosts = append(a.Hosts, core.HostRange{Start: h.Start, N: h.Nb})
			}
			t.Allocations = append(t.Allocations, a)
		}
		s.Tasks = append(s.Tasks, t)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("jedxml: invalid schedule: %w", err)
	}
	return s, nil
}

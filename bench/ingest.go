package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/jedxml"
	"repro/internal/render"
)

// ingest is the write side of sessions: upload a large document, look at
// it once as a PNG, export it as a PDF, delete it. Every iteration is a new
// session, so parsing, validation, indexing and the vector encoder do the
// work, and the render cache never answers.
type ingest struct {
	sz    sizes
	docs  []ingestDoc
	srv   *server
	cl    *client
	meta0 meta // server counters when the timed phase starts
}

type ingestDoc struct {
	xml      []byte
	png, pdf [32]byte // sha256 of the in-process reference bodies
}

// The full-view queries of an iteration.
const (
	ingestW, ingestH = 1600, 1000
	ingestRender     = "/render?width=1600&height=1000&lod=true"
	ingestExport     = "/export?format=pdf&width=1600&height=1000&lod=true"
)

func (w *ingest) clients() int { return 1 }

// ingestSchedule is a seeded 4-cluster x 64-host trace of n tasks.
func ingestSchedule(n int, rng *rand.Rand) *core.Schedule {
	clusters := make([]core.Cluster, 4)
	for i := range clusters {
		clusters[i] = core.Cluster{ID: i, Name: fmt.Sprintf("cluster-%d", i), Hosts: 64}
	}
	s := core.New(clusters...)
	types := []string{"computation", "transfer"}
	for i := 0; i < n; i++ {
		start := rng.Float64() * 10_000
		first := rng.Intn(60)
		s.AddTask(core.Task{
			ID: fmt.Sprintf("t%d", i), Type: types[rng.Intn(2)],
			Start: start, End: start + 0.5 + rng.Float64()*40,
			Allocations: []core.Allocation{{Cluster: i % 4,
				Hosts: []core.HostRange{{Start: first, N: 1 + rng.Intn(4)}}}},
		})
	}
	return s
}

func (w *ingest) prepare(r *run) error {
	for i := 0; i < w.sz.ingestDocs; i++ {
		var doc bytes.Buffer
		s := ingestSchedule(w.sz.ingestTasks, rand.New(rand.NewSource(r.seed*100+int64(i))))
		if err := jedxml.Write(&doc, s); err != nil {
			return err
		}
		// The reference renders the parsed document, exactly what the
		// server holds after the upload.
		parsed, err := jedxml.ReadFormat("jedule", bytes.NewReader(doc.Bytes()))
		if err != nil {
			return err
		}
		d := ingestDoc{xml: doc.Bytes()}
		for _, f := range []struct {
			format string
			sum    *[32]byte
		}{{"png", &d.png}, {"pdf", &d.pdf}} {
			var body bytes.Buffer
			if err := render.Encode(&body, f.format, parsed, ingestW, ingestH, viewOptions(nil)); err != nil {
				return err
			}
			*f.sum = sha256.Sum256(body.Bytes())
		}
		w.docs = append(w.docs, d)
	}
	return nil
}

func (w *ingest) setup(r *run, op int64) error {
	srv, err := serve(api.NewServer(api.NewStore()))
	if err != nil {
		return err
	}
	w.srv, w.cl = srv, newClient(1, r.tr)
	// One discarded iteration: the first upload pays for growing the heap
	// and warming every code path, which no later iteration repeats.
	_, err = w.iterate(r, op, w.docs[0])
	return err
}

func (w *ingest) begin(*run) error {
	var err error
	w.meta0, err = w.cl.meta(w.srv.base)
	return err
}

func (w *ingest) op(r *run, _ int, op int64) (time.Duration, error) {
	return w.iterate(r, op, w.docs[int(op)%len(w.docs)])
}

// iterate is one upload -> PNG -> PDF -> delete round.
func (w *ingest) iterate(r *run, op int64, d ingestDoc) (time.Duration, error) {
	start := time.Now()
	base := w.srv.base + "/api/v1/sessions"
	up, err := w.cl.do(op, "api.upload", http.MethodPost, base, d.xml, "application/xml", http.StatusCreated)
	if err != nil {
		return 0, err
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(up.body, &info); err != nil {
		return 0, fmt.Errorf("upload reply: %w", err)
	}
	png, err := w.cl.do(op, "api.render", http.MethodGet, base+"/"+info.ID+ingestRender, nil, "", http.StatusOK)
	if err != nil {
		return 0, err
	}
	pdf, err := w.cl.do(op, "api.export", http.MethodGet, base+"/"+info.ID+ingestExport, nil, "", http.StatusOK)
	if err != nil {
		return 0, err
	}
	if _, err := w.cl.do(op, "api.delete", http.MethodDelete, base+"/"+info.ID, nil, "", http.StatusNoContent); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if sha256.Sum256(png.body) != d.png {
		r.fail("op %d: PNG of session %s differs from the in-process render", op, info.ID)
	}
	if sha256.Sum256(pdf.body) != d.pdf {
		r.fail("op %d: PDF of session %s differs from the in-process render", op, info.ID)
	}
	if op > 0 {
		r.sample("op.upload_ms", up.ms())
		r.sample("op.first_render_ms", png.ms())
		r.sample("op.export_pdf_ms", pdf.ms())
	}
	return elapsed, nil
}

func (w *ingest) finish(r *run) error {
	if r.tr == nil {
		return nil
	}
	// Shadow replay: the parse (with the validation it ends with) and the
	// index build of every document, serially.
	var readMS []float64
	var bytesRead, readSecs float64
	for _, d := range w.docs {
		s, ms, err := shadowRead(r.tr, "jedule", d.xml)
		if err != nil {
			return err
		}
		readMS = append(readMS, ms)
		bytesRead += float64(len(d.xml))
		readSecs += ms / 1000
		r.tr.timed(opShadow, 0, "render.index", "render", func() { render.BuildIndex(s) })
	}
	r.layers["jedxml.read_mb_per_s"] = metric{Value: bytesRead / 1e6 / readSecs, N: len(w.docs)}
	// The upload time the parse does not account for: Store.Add's
	// fingerprint, the JSON reply, and whatever part of the transfer the
	// server's streaming parse does not overlap. It is a difference of two
	// medians of similar size, so it is noisy and can come out negative.
	ups := r.samplesOf("op.upload_ms")
	r.layers["api.upload_unattributed_ms"] = metric{Value: median(ups) - median(readMS), N: len(ups)}
	m, err := w.cl.meta(w.srv.base)
	if err != nil {
		return err
	}
	r.counters(w.meta0, m)
	return nil
}

// shadowRead parses a document the way an upload does and records the parse
// as a jedxml.read span whose tail is a core.validate child: ReadFormat ends
// by validating, so the validation is timed separately on the result and
// laid over the parse's last milliseconds. It returns the schedule and the
// parse's wall time in ms.
func shadowRead(tr *tracer, format string, doc []byte) (*core.Schedule, float64, error) {
	start := time.Now()
	s, err := jedxml.ReadFormat(format, bytes.NewReader(doc))
	end := time.Now()
	if err != nil {
		return nil, 0, err
	}
	v0 := time.Now()
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	v := time.Since(v0)
	id := tr.add(opShadow, 0, "jedxml.read", "jedxml", start, end)
	tr.add(opShadow, id, "core.validate", "core", end.Add(-v), end)
	return s, float64(end.Sub(start).Nanoseconds()) / 1e6, nil
}

func (w *ingest) teardown() {
	if w.srv != nil {
		w.srv.close()
		w.cl.close()
		w.srv, w.cl = nil, nil
	}
}

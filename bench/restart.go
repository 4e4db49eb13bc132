package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/jedxml"
	"repro/internal/persist"
	"repro/internal/render"
)

// restart is a durable server coming back: close everything, reopen the
// state directory, replay its logs, and serve again. Listing the recovered
// sessions must not parse anything; the first render of a session hydrates
// it from its journaled document. It is the only workload where persist
// does any work.
type restart struct {
	sz   sizes
	docs []restartDoc
	dir  string

	ps    persist.Store // the filesystem store under the timing wrapper
	store *api.Store
	srv   *server
	cl    *client

	written atomic.Int64 // bytes handed to Put and PutDurable

	sessions []string // session IDs, in list order
	jobs     []string
	list     []byte            // GET /sessions before the first restart
	etags    map[string]string // session -> render ETag before the first restart
	bodies   map[string][32]byte
	results  map[string][]byte // job -> /result bytes before the first restart
	hydrated map[int]bool      // documents hydrated by a timed op
}

type restartDoc struct {
	body   []byte
	format string // parser registry name
	ctype  string
}

const restartRender = "/render?width=800&height=500&lod=true"

func (w *restart) clients() int { return 1 }

func (w *restart) prepare(r *run) error {
	for i := 0; i < w.sz.restartSessions; i++ {
		s := ingestSchedule(w.sz.restartTasks, rand.New(rand.NewSource(r.seed*100_000+int64(i))))
		var buf bytes.Buffer
		d := restartDoc{format: "jedule", ctype: "application/xml"}
		write := jedxml.Write
		if i%2 == 1 {
			d.format, d.ctype, write = "csv", "text/csv", jedxml.WriteCSV
		}
		if err := write(&buf, s); err != nil {
			return err
		}
		d.body = buf.Bytes()
		w.docs = append(w.docs, d)
	}
	return nil
}

// timedStore is the persist.Store handed to the server: it times the
// writes and loads of the stateful layers and counts the bytes written.
type timedStore struct {
	persist.Store
	tr      *tracer
	written *atomic.Int64
}

func (s *timedStore) timed(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	op, parent := s.tr.context()
	s.tr.add(op, parent, name, "persist", start, time.Now())
	return err
}

func (s *timedStore) Put(ns, key string, value []byte) error {
	s.written.Add(int64(len(value)))
	return s.timed("persist.put", func() error { return s.Store.Put(ns, key, value) })
}

func (s *timedStore) PutDurable(ns, key string, value []byte) error {
	s.written.Add(int64(len(value)))
	return s.timed("persist.put_durable", func() error { return s.Store.PutDurable(ns, key, value) })
}

func (s *timedStore) Load(ns string) (map[string][]byte, error) {
	var m map[string][]byte
	err := s.timed("persist.load", func() error {
		var err error
		m, err = s.Store.Load(ns)
		return err
	})
	return m, err
}

// open reopens the state directory and serves it, the way jedserve
// -state-dir starts.
func (w *restart) open(r *run, op int64) error {
	var ps persist.Store
	err := r.tr.call(op, "persist.open", "persist", func() error {
		var err error
		ps, err = persist.Open(w.dir)
		return err
	})
	if err != nil {
		return err
	}
	w.ps = ps
	wrapped := &timedStore{Store: ps, tr: r.tr, written: &w.written}
	w.store = api.NewStore()
	w.store.SetPersist(wrapped)
	if err := r.tr.call(op, "api.recover_sessions", "api", func() error {
		_, err := w.store.RecoverSessions()
		return err
	}); err != nil {
		return err
	}
	srv := api.NewServer(w.store)
	if err := r.tr.call(op, "jobs.recover", "jobs", func() error { return srv.EnablePersistence(wrapped) }); err != nil {
		srv.Close()
		return err
	}
	w.srv, err = serve(srv)
	return err
}

// shut closes the server, the session store and the state directory.
func (w *restart) shut() {
	if w.srv != nil {
		w.srv.close()
		w.srv = nil
	}
	if w.store != nil {
		w.store.Close()
		w.store = nil
	}
	if w.ps != nil {
		w.ps.Close() //nolint:errcheck // only read since the last sync
		w.ps = nil
	}
	w.cl.close()
}

func (w *restart) setup(r *run, op int64) error {
	dir, err := os.MkdirTemp("", "jedbench-restart-")
	if err != nil {
		return err
	}
	w.dir, w.cl = dir, newClient(1, r.tr)
	w.written.Store(0)
	if err := w.open(r, op); err != nil {
		return err
	}
	for i, d := range w.docs {
		rep, err := w.cl.do(op, "api.upload", http.MethodPost,
			fmt.Sprintf("%s/api/v1/sessions?name=doc-%d", w.srv.base, i), d.body, d.ctype, http.StatusCreated)
		if err != nil {
			return err
		}
		if op == opSetup {
			r.sample("api.durable_upload_ms", rep.ms())
		}
	}
	w.jobs = w.jobs[:0]
	for i := 0; i < 2; i++ {
		spec := w.sz.restartJob
		spec.Seed = r.seed*10 + int64(i) + 1
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		rep, err := w.cl.do(op, "api.job_submit", http.MethodPost, w.srv.base+"/api/v1/jobs", body, "application/json", http.StatusAccepted)
		if err != nil {
			return err
		}
		var st jobState
		if err := json.Unmarshal(rep.body, &st); err != nil {
			return err
		}
		if _, _, err := w.cl.awaitJob(op, "api.job_wait", w.srv.base+"/api/v1/jobs/"+st.ID); err != nil {
			return err
		}
		w.jobs = append(w.jobs, st.ID)
	}
	return nil
}

// begin records what every restart must reproduce byte for byte.
func (w *restart) begin(r *run) error {
	rep, err := w.cl.do(opNone, "api.list", http.MethodGet, w.srv.base+"/api/v1/sessions", nil, "", http.StatusOK)
	if err != nil {
		return err
	}
	w.list = rep.body
	var list struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(rep.body, &list); err != nil {
		return err
	}
	if len(list.Sessions) != len(w.docs) {
		return fmt.Errorf("%d sessions listed, %d uploaded", len(list.Sessions), len(w.docs))
	}
	w.etags, w.bodies, w.results = map[string]string{}, map[string][32]byte{}, map[string][]byte{}
	w.hydrated = map[int]bool{}
	for _, s := range list.Sessions {
		rep, err := w.cl.do(opNone, "api.render", http.MethodGet, w.srv.base+"/api/v1/sessions/"+s.ID+restartRender, nil, "", http.StatusOK)
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, s.ID)
		w.etags[s.ID], w.bodies[s.ID] = rep.header.Get("ETag"), sha256.Sum256(rep.body)
	}
	for _, j := range w.jobs {
		rep, err := w.cl.do(opNone, "api.job_result", http.MethodGet, w.srv.base+"/api/v1/jobs/"+j+"/result", nil, "", http.StatusOK)
		if err != nil {
			return err
		}
		w.results[j] = rep.body
	}
	return nil
}

// op is one restart: close (untimed), then reopen until the session list is
// complete, the first render of a recovered session, and a job result.
func (w *restart) op(r *run, _ int, op int64) (time.Duration, error) {
	w.shut()
	start := time.Now()
	if err := w.open(r, op); err != nil {
		return 0, err
	}
	list, err := w.cl.do(op, "api.list", http.MethodGet, w.srv.base+"/api/v1/sessions", nil, "", http.StatusOK)
	if err != nil {
		return 0, err
	}
	recovered := time.Since(start)
	k := int(op) % len(w.sessions)
	id := w.sessions[k]
	img, err := w.cl.do(op, "api.render", http.MethodGet, w.srv.base+"/api/v1/sessions/"+id+restartRender, nil, "", http.StatusOK)
	if err != nil {
		return 0, err
	}
	job := w.jobs[int(op)%len(w.jobs)]
	res, err := w.cl.do(op, "api.job_result", http.MethodGet, w.srv.base+"/api/v1/jobs/"+job+"/result", nil, "", http.StatusOK)
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if !bytes.Equal(list.body, w.list) {
		r.fail("op %d: session list changed across the restart", op)
	}
	if img.header.Get("ETag") != w.etags[id] || sha256.Sum256(img.body) != w.bodies[id] {
		r.fail("op %d: render of %s changed across the restart", op, id)
	}
	if !bytes.Equal(res.body, w.results[job]) {
		r.fail("op %d: /result of job %s changed across the restart", op, job)
	}
	r.sample("op.recovery_ms", float64(recovered.Nanoseconds())/1e6)
	r.sample("op.hydrate_render_ms", img.ms())
	w.hydrated[k] = true
	if r.tr != nil {
		// Each restart starts a fresh server, so its counters are all this
		// op's.
		m, err := w.cl.meta(w.srv.base)
		if err != nil {
			return 0, err
		}
		r.counters(meta{}, m)
	}
	return elapsed, nil
}

func (w *restart) finish(r *run) error {
	if r.tr == nil {
		return nil
	}
	// Shadow replay: the parse and index build of up to four hydrated
	// documents, serially.
	var bytesRead, readSecs float64
	n := 0
	for k := range w.docs {
		if !w.hydrated[k] || n == 4 {
			continue
		}
		n++
		s, ms, err := shadowRead(r.tr, w.docs[k].format, w.docs[k].body)
		if err != nil {
			return err
		}
		bytesRead += float64(len(w.docs[k].body))
		readSecs += ms / 1000
		r.tr.timed(opShadow, 0, "render.index", "render", func() { render.BuildIndex(s) })
	}
	if readSecs > 0 {
		r.layers["jedxml.read_mb_per_s"] = metric{Value: bytesRead / 1e6 / readSecs, N: n}
	}
	r.layers["persist.bytes_written"] = metric{Value: float64(w.written.Load()), N: 1}
	return nil
}

func (w *restart) teardown() {
	if w.cl == nil {
		return
	}
	w.shut()
	os.RemoveAll(w.dir) //nolint:errcheck // a leftover temp dir is harmless
	w.cl = nil
}

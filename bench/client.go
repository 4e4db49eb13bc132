package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/render"
)

// server is one api.Server listening on a loopback port.
type server struct {
	api  *api.Server
	http *http.Server
	base string
	done chan error
}

// serve starts s on a fresh loopback port.
func serve(s *api.Server) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	srv := &server{api: s, http: &http.Server{Handler: s.Handler()}, base: "http://" + ln.Addr().String(),
		done: make(chan error, 1)}
	go func() { srv.done <- srv.http.Serve(ln) }()
	return srv, nil
}

// close stops serving, waits for the serve loop to return, and stops the
// server's job engines.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.http.Shutdown(ctx) //nolint:errcheck // a handler outliving the timeout is closed below
	s.http.Close()       //nolint:errcheck
	<-s.done
	s.api.Close()
}

// viewOptions are the render options the server derives from a query that
// sets only width, height, lod=true and optionally window: aligned panels
// and labels are its defaults. In-process references render with them.
func viewOptions(window *core.Extent) render.Options {
	return render.Options{Mode: core.AlignedView, Labels: true, LOD: true, Window: window}
}

// client is the load generator's HTTP client. It records one span per
// request and turns the response's Server-Timing stages into child spans.
type client struct {
	hc *http.Client
	tr *tracer
}

// newClient returns a client that opens at most conns connections.
func newClient(conns int, tr *tracer) *client {
	return &client{tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed request.
type reply struct {
	header http.Header
	body   []byte
	start  time.Time
	end    time.Time
	stages []stage
}

func (r *reply) ms() float64 { return float64(r.end.Sub(r.start).Nanoseconds()) / 1e6 }

// hit reports the render cache disposition of a /render or /export reply.
func (r *reply) hit() bool { return r.header.Get("X-Render-Cache") == "hit" }

// stage is one "name;dur=ms" entry of a Server-Timing header.
type stage struct {
	name string
	ms   float64
}

// parseServerTiming reads the stage durations of a Server-Timing header,
// skipping entries without a duration (the "cache;desc=" marker).
func parseServerTiming(h string) []stage {
	var out []stage
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		for _, p := range parts[1:] {
			if v, ok := strings.CutPrefix(strings.TrimSpace(p), "dur="); ok {
				if ms, err := strconv.ParseFloat(v, 64); err == nil {
					out = append(out, stage{name: parts[0], ms: ms})
				}
			}
		}
	}
	return out
}

// stageSpan names the span of a Server-Timing stage. The encode stage
// belongs to the encoder's module, chosen by the reply's content type.
func stageSpan(name, contentType string) (string, string) {
	switch name {
	case "encode":
		switch {
		case strings.HasPrefix(contentType, "image/png"):
			return "raster.encode", "raster"
		case strings.HasPrefix(contentType, "application/pdf"):
			return "pdf.encode", "pdf"
		}
		return "render.encode", "render"
	case "index":
		// The render-time index check; the index itself is built before the
		// render starts and is not part of any stage.
		return "render.index_check", "render"
	}
	return "render." + name, "render"
}

// do issues one request, expects status want, and records the request as
// span name under op (the span of a render or export gets a _hit or _miss
// suffix, and its Server-Timing stages become its children).
func (c *client) do(op int64, name, method, url string, body []byte, contentType string, want int) (*reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rep := &reply{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	rep.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.end = time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	rep.header = resp.Header
	if resp.StatusCode != want {
		snippet := rep.body[:min(len(rep.body), 200)]
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, snippet)
	}
	if st := resp.Header.Get("Server-Timing"); st != "" {
		rep.stages = parseServerTiming(st)
		if rep.hit() {
			name += "_hit"
		} else {
			name += "_miss"
		}
	}
	c.record(op, name, rep)
	return rep, nil
}

// record adds the request span and its stage children. Server-Timing gives
// durations only, so the children are laid end to end from the request's
// start; the parent's self time is what no stage accounts for.
func (c *client) record(op int64, name string, rep *reply) {
	id := c.tr.add(op, 0, name, "api", rep.start, rep.end)
	if id == 0 {
		return
	}
	at := rep.start
	ct := rep.header.Get("Content-Type")
	for _, s := range rep.stages {
		d := time.Duration(s.ms * float64(time.Millisecond))
		n, layer := stageSpan(s.name, ct)
		c.tr.add(op, id, n, layer, at, at.Add(d))
		at = at.Add(d)
	}
}

// getJSON issues a GET expecting 200 and decodes the body into out.
func (c *client) getJSON(op int64, name, url string, out any) (*reply, error) {
	rep, err := c.do(op, name, http.MethodGet, url, nil, "", http.StatusOK)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(rep.body, out); err != nil {
		return rep, fmt.Errorf("GET %s: decoding: %w", url, err)
	}
	return rep, nil
}

// jobState is the part of a job or campaign description the benchmark reads.
type jobState struct {
	ID      string    `json:"id"`
	State   string    `json:"state"`
	Error   string    `json:"error"`
	Created time.Time `json:"created"`
	Started time.Time `json:"started"`
}

// awaitJob long-polls a job or campaign URL until it is terminal and
// returns its final state; anything but done is an error.
func (c *client) awaitJob(op int64, name, url string) (jobState, time.Time, error) {
	for {
		var st jobState
		rep, err := c.getJSON(op, name, url+"?wait=30s", &st)
		if err != nil {
			return st, time.Time{}, err
		}
		switch st.State {
		case "done":
			return st, rep.end, nil
		case "failed", "cancelled":
			return st, rep.end, errors.New(url + " ended " + st.State + ": " + st.Error)
		}
	}
}

// meta is the part of GET /api/v1/meta the benchmark reads.
type meta struct {
	LODTasks int64 `json:"lod_tasks_aggregated"`
	Events   struct {
		Published float64 `json:"published"`
		Dropped   float64 `json:"dropped"`
	} `json:"events"`
	Fleet struct {
		LeasesGranted   float64 `json:"leases_granted"`
		ShardsCompleted float64 `json:"shards_completed"`
	} `json:"fleet"`
}

func (c *client) meta(base string) (meta, error) {
	var m meta
	_, err := c.getJSON(opNone, "api.meta", base+"/api/v1/meta", &m)
	return m, err
}

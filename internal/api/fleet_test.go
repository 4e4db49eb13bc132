package api

// Fleet surface tests: SetFleet mounts the worker protocol on the API mux,
// exposes the counters on /api/v1/meta, and routes POST /api/v1/campaigns
// through the pull queue.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

// newFleetServer wires a manager into a fresh API server before its handler
// is built (SetFleet must precede Handler, like every Set* knob).
func newFleetServer(t *testing.T, m *fleet.Manager, minWorkers int) (*httptest.Server, *Server) {
	t.Helper()
	srv := NewServer(NewStore())
	t.Cleanup(srv.Close)
	srv.SetFleet(m, minWorkers)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// startPuller runs a fleet worker loop against the server at url until the
// test ends.
func startPuller(t *testing.T, url, name string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.Cleanup(func() { cancel(); <-done })
	go func() {
		defer close(done)
		fleet.RunWorker(ctx, fleet.WorkerConfig{ //nolint:errcheck // exits on cancel
			Coordinator: url,
			Name:        name,
			Poll:        10 * time.Millisecond,
		})
	}()
}

// TestFleetWorkersEndpoint pins the mounted protocol: join over HTTP, see
// the worker in the registry and the counters on /api/v1/meta.
func TestFleetWorkersEndpoint(t *testing.T) {
	m := fleet.NewManager(fleet.Config{HeartbeatInterval: time.Second})
	ts, _ := newFleetServer(t, m, 1)

	code, join := doJSON(t, "POST", ts.URL+"/api/v1/workers", strings.NewReader(`{"name": "box"}`), "application/json")
	if code != 201 || join["id"] == "" {
		t.Fatalf("join = %d %v", code, join)
	}
	if hb := join["heartbeat_seconds"].(float64); hb != 1 {
		t.Fatalf("advertised heartbeat = %v", hb)
	}
	code, list := doJSON(t, "GET", ts.URL+"/api/v1/workers", nil, "")
	if code != 200 || len(list["workers"].([]any)) != 1 {
		t.Fatalf("workers list = %d %v", code, list)
	}
	code, meta := doJSON(t, "GET", ts.URL+"/api/v1/meta", nil, "")
	if code != 200 {
		t.Fatalf("meta = %d", code)
	}
	fl, ok := meta["fleet"].(map[string]any)
	if !ok {
		t.Fatalf("meta has no fleet block: %v", meta)
	}
	if fl["workers_joined"].(float64) != 1 || fl["workers_active"].(float64) != 1 {
		t.Fatalf("fleet counters = %v", fl)
	}

	// Without SetFleet the endpoint does not exist and meta has no block.
	bare, _ := newTestServer(t)
	code, _ = doJSON(t, "GET", bare.URL+"/api/v1/workers", nil, "")
	if code != 404 {
		t.Fatalf("workers endpoint without fleet = %d, want 404", code)
	}
	code, meta = doJSON(t, "GET", bare.URL+"/api/v1/meta", nil, "")
	if code != 200 {
		t.Fatalf("meta = %d", code)
	}
	if _, ok := meta["fleet"]; ok {
		t.Fatalf("meta advertises a fleet without SetFleet: %v", meta)
	}
}

// TestFleetCampaign runs POST /api/v1/campaigns through the fleet's pull
// queue: the merged result equals a direct in-process job of the same spec,
// and the fleet counters on /api/v1/meta saw every shard.
func TestFleetCampaign(t *testing.T) {
	m := fleet.NewManager(fleet.Config{HeartbeatInterval: 100 * time.Millisecond})
	ts, srv := newFleetServer(t, m, 1)
	startPuller(t, ts.URL, "puller")

	spec := fmt.Sprintf(smallJobSpec, `, "shards": 4`)
	code, info := doJSON(t, "POST", ts.URL+"/api/v1/campaigns", strings.NewReader(spec), "application/json")
	if code != 202 {
		t.Fatalf("create fleet campaign = %d %v", code, info)
	}
	final := waitCampaign(t, ts, srv, info["id"].(string))
	if final["state"] != "done" {
		t.Fatalf("final state = %v (error %v)", final["state"], final["error"])
	}
	coordination := final["coordination"].(map[string]any)
	if got := coordination["shards_done"].(float64); got != 4 {
		t.Fatalf("shards_done = %v", got)
	}

	// Identical to the single-process job result.
	jobID := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))
	if st := pollJob(t, ts, jobID); st["state"] != "done" {
		t.Fatalf("reference job = %v", st)
	}
	code, coordRes := doJSON(t, "GET", ts.URL+"/api/v1/campaigns/"+info["id"].(string)+"/result", nil, "")
	if code != 200 {
		t.Fatalf("campaign result = %d", code)
	}
	code, jobRes := doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+jobID+"/result", nil, "")
	if code != 200 {
		t.Fatalf("job result = %d", code)
	}
	if coordRes["table"].(string) != jobRes["table"].(string) {
		t.Fatalf("fleet campaign table differs:\n%s\nvs\n%s", coordRes["table"], jobRes["table"])
	}

	// The fleet counters saw the campaign.
	code, meta := doJSON(t, "GET", ts.URL+"/api/v1/meta", nil, "")
	if code != 200 {
		t.Fatalf("meta = %d", code)
	}
	fl := meta["fleet"].(map[string]any)
	if fl["shards_completed"].(float64) != 4 || fl["leases_granted"].(float64) < 4 {
		t.Fatalf("fleet counters = %v", fl)
	}
}

package api

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

// newCampaignServer is an API server with a fleet of n pull workers
// joined, ready to run POST /api/v1/campaigns.
func newCampaignServer(t *testing.T, n int) (*httptest.Server, *Server) {
	t.Helper()
	ts, srv := newFleetServer(t, fleet.NewManager(fleet.Config{HeartbeatInterval: 100 * time.Millisecond}), 1)
	for i := 0; i < n; i++ {
		startPuller(t, ts.URL, fmt.Sprintf("puller-%d", i))
	}
	return ts, srv
}

// waitCampaign blocks on the engine's wait primitive (not a sleep loop)
// until the coordinated campaign is terminal, then fetches its final state.
func waitCampaign(t *testing.T, ts *httptest.Server, srv *Server, id string) map[string]any {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := srv.CoordJobs().Wait(ctx, id); err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	code, info := doJSON(t, "GET", ts.URL+"/api/v1/campaigns/"+id, nil, "")
	if code != 200 {
		t.Fatalf("get campaign %s = %d %v", id, code, info)
	}
	return info
}

// TestCoordinatedCampaign runs POST /api/v1/campaigns against two real
// pull workers and checks the merged result equals a direct (uncoordinated)
// job on the same spec.
func TestCoordinatedCampaign(t *testing.T) {
	ts, srv := newCampaignServer(t, 2)

	spec := fmt.Sprintf(smallJobSpec, `, "shards": 4`)
	code, info := doJSON(t, "POST", ts.URL+"/api/v1/campaigns", strings.NewReader(spec), "application/json")
	if code != 202 {
		t.Fatalf("create campaign = %d %v", code, info)
	}
	id := info["id"].(string)
	if info["kind"] != "campaign-coordinated" {
		t.Fatalf("kind = %v", info["kind"])
	}

	final := waitCampaign(t, ts, srv, id)
	if final["state"] != "done" {
		t.Fatalf("final state = %v (error %v)", final["state"], final["error"])
	}
	coordination := final["coordination"].(map[string]any)
	if got := coordination["shards_done"].(float64); got != 4 {
		t.Fatalf("shards_done = %v", got)
	}
	if got := coordination["cells_done"].(float64); got != 4 {
		t.Fatalf("cells_done = %v", got)
	}
	prog := final["progress"].(map[string]any)
	if prog["done"].(float64) != 4 || prog["total"].(float64) != 4 {
		t.Fatalf("job progress = %v", prog)
	}

	// The coordinated result equals a plain job run of the same spec.
	jobID := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))
	if st := pollJob(t, ts, jobID); st["state"] != "done" {
		t.Fatalf("reference job = %v", st)
	}
	code, coordRes := doJSON(t, "GET", ts.URL+"/api/v1/campaigns/"+id+"/result", nil, "")
	if code != 200 {
		t.Fatalf("campaign result = %d %v", code, coordRes)
	}
	code, jobRes := doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+jobID+"/result", nil, "")
	if code != 200 {
		t.Fatalf("job result = %d", code)
	}
	if coordRes["table"].(string) != jobRes["table"].(string) {
		t.Fatalf("coordinated table differs:\n%s\nvs\n%s", coordRes["table"], jobRes["table"])
	}

	// The campaign listing carries it; the plain job listing does too (same
	// engine), but under its own kind.
	code, list := doJSON(t, "GET", ts.URL+"/api/v1/campaigns", nil, "")
	if code != 200 || len(list["campaigns"].([]any)) != 1 {
		t.Fatalf("campaigns list = %d %v", code, list)
	}
}

func TestCoordinatedCampaignBadInputs(t *testing.T) {
	// No fleet configured: campaigns are unavailable.
	bare, _ := newTestServer(t)
	code, body := doJSON(t, "POST", bare.URL+"/api/v1/campaigns",
		strings.NewReader(fmt.Sprintf(smallJobSpec, "")), "application/json")
	if code != 503 {
		t.Fatalf("no workers = %d, want 503", code)
	}
	if e := body["error"].(map[string]any); e["code"] != "no_workers" || !strings.Contains(e["message"].(string), "-fleet") {
		t.Fatalf("no-workers error = %v, want code no_workers pointing at -fleet", e)
	}

	ts, _ := newCampaignServer(t, 1)
	for name, check := range map[string]struct {
		method, url, body string
		want              int
	}{
		"bad json":         {"POST", "/api/v1/campaigns", "{", 400},
		"unknown field":    {"POST", "/api/v1/campaigns", `{"bogus": 1}`, 400},
		"pre-sharded spec": {"POST", "/api/v1/campaigns", fmt.Sprintf(smallJobSpec, `, "shard": "1/2"`), 400},
		"one algo":         {"POST", "/api/v1/campaigns", `{"algos": ["cpa"]}`, 400},
		"unknown campaign": {"GET", "/api/v1/campaigns/j99", "", 404},
		"unknown cancel":   {"DELETE", "/api/v1/campaigns/j99", "", 404},
		"unknown result":   {"GET", "/api/v1/campaigns/j99/result", "", 404},
	} {
		code, _ := doJSON(t, check.method, ts.URL+check.url, strings.NewReader(check.body), "application/json")
		if code != check.want {
			t.Errorf("%s: code = %d, want %d", name, code, check.want)
		}
	}

	// A plain job is not addressable as a campaign (and vice versa its
	// in-flight result answers 409, which the jobs tests cover).
	jobID := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))
	pollJob(t, ts, jobID)
	if code, _ := doJSON(t, "GET", ts.URL+"/api/v1/campaigns/"+jobID, nil, ""); code != 404 {
		t.Fatalf("plain job as campaign = %d, want 404", code)
	}
}

// TestCoordinatedCampaignResultTooSoon pins the 409 while the fan-out is
// still running, plus cancellation through the campaign surface.
func TestCoordinatedCampaignCancel(t *testing.T) {
	ts, srv := newCampaignServer(t, 1)
	// Heavy enough that cancellation strikes before completion.
	body := `{"algos": ["cpa", "mcpa"], "replicates": 6, "seed": 5, "shards": 8}`
	code, info := doJSON(t, "POST", ts.URL+"/api/v1/campaigns", strings.NewReader(body), "application/json")
	if code != 202 {
		t.Fatalf("create campaign = %d %v", code, info)
	}
	id := info["id"].(string)
	if code, _ := doJSON(t, "GET", ts.URL+"/api/v1/campaigns/"+id+"/result", nil, ""); code != 409 {
		t.Fatalf("result too soon = %d, want 409", code)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/api/v1/campaigns/"+id, nil, ""); code != 200 {
		t.Fatalf("cancel = %d", code)
	}
	final := waitCampaign(t, ts, srv, id)
	if final["state"] == "done" {
		t.Fatalf("cancelled campaign finished done")
	}
}

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

const smallJobSpec = `{"algos": ["cpa", "mcpa"], "shapes": ["serial", "wide"],
	"dag_sizes": [15], "cluster_sizes": [16, 32], "replicates": 2, "seed": 11%s}`

// launchJob POSTs a job spec and returns the job id.
func launchJob(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	code, info := doJSON(t, "POST", ts.URL+"/api/v1/jobs", strings.NewReader(spec), "application/json")
	if code != 202 {
		t.Fatalf("create job = %d %v", code, info)
	}
	if info["state"] != "pending" { // the state as filed, however fast it runs
		t.Fatalf("initial state = %v", info["state"])
	}
	return info["id"].(string)
}

// pollJob blocks until the job reaches a terminal state, via the ?wait=
// long-poll rather than a sleep loop.
func pollJob(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	return pollAt(t, ts.URL+"/api/v1/jobs/"+id)
}

// pollAt long-polls the campaign at url until it is terminal.
func pollAt(t *testing.T, url string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		code, info := doJSON(t, "GET", url+"?wait=30s", nil, "")
		if code != 200 {
			t.Fatalf("poll %s = %d %v", url, code, info)
		}
		switch info["state"] {
		case "done", "failed", "cancelled":
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck: %v", url, info)
		}
	}
}

// TestJobLaunchPollResult is the acceptance path: POST a campaign spec,
// poll the job, fetch the aggregated result.
func TestJobLaunchPollResult(t *testing.T) {
	ts, _ := newTestAPI(t)
	id := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))

	info := pollJob(t, ts, id)
	if info["state"] != "done" {
		t.Fatalf("final state = %v (error %v)", info["state"], info["error"])
	}
	prog := info["progress"].(map[string]any)
	if prog["done"].(float64) != 4 || prog["total"].(float64) != 4 {
		t.Fatalf("progress = %v", prog)
	}
	if info["started"] == nil || info["finished"] == nil {
		t.Fatalf("timestamps missing: %v", info)
	}

	code, res := doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id+"/result", nil, "")
	if code != 200 {
		t.Fatalf("result = %d %v", code, res)
	}
	if got := res["total"].(float64); got != 8 {
		t.Fatalf("total runs = %v", got)
	}
	wins := res["wins"].(map[string]any)
	ties := res["ties"].(float64)
	if wins["cpa"].(float64)+wins["mcpa"].(float64)+ties != 8 {
		t.Fatalf("wins do not sum: %v ties %v", wins, ties)
	}
	if len(res["cells"].([]any)) != 4 {
		t.Fatalf("cells = %d", len(res["cells"].([]any)))
	}
	table := res["table"].(string)
	if !strings.Contains(table, "cpa-wins") || !strings.Contains(table, "total 8 runs") {
		t.Fatalf("table = %q", table)
	}
	merged := res["merged"].([]any)
	if len(merged) != 1 || merged[0] != id {
		t.Fatalf("merged = %v", merged)
	}

	// Jobs listing knows the job.
	code, list := doJSON(t, "GET", ts.URL+"/api/v1/jobs", nil, "")
	if code != 200 || len(list["jobs"].([]any)) != 1 {
		t.Fatalf("jobs list = %d %v", code, list)
	}
}

// TestJobDefaultCampaign runs the paper-sized default factorial (empty
// spec) through the job surface end to end.
func TestJobDefaultCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full default campaign")
	}
	ts, _ := newTestAPI(t)
	id := launchJob(t, ts, `{"replicates": 2}`) // default dims, fast replicate count
	info := pollJob(t, ts, id)
	if info["state"] != "done" {
		t.Fatalf("final state = %v (error %v)", info["state"], info["error"])
	}
	code, res := doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id+"/result", nil, "")
	if code != 200 {
		t.Fatalf("result = %d %v", code, res)
	}
	if got := len(res["cells"].([]any)); got != 45 {
		t.Fatalf("default campaign cells = %d, want 45", got)
	}
	if got := res["total"].(float64); got != 90 {
		t.Fatalf("default campaign runs = %v, want 90", got)
	}
}

// TestJobShardMerge splits one job into shards through the "shards" knob —
// the coordinator merges them — and checks every split matches the
// campaign run in a single process, cell for cell.
func TestJobShardMerge(t *testing.T) {
	ts, _ := newTestAPI(t)
	want := singleProcessTable(t, smallJobSpec)
	for _, shards := range []int{1, 2, 4} {
		id := launchJob(t, ts, fmt.Sprintf(smallJobSpec, fmt.Sprintf(`, "shards": %d`, shards)))
		if st := pollJob(t, ts, id); st["state"] != "done" {
			t.Fatalf("%d shards: job %s = %v", shards, id, st)
		}
		code, res := doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id+"/result", nil, "")
		if code != 200 {
			t.Fatalf("%d shards: result = %d %v", shards, code, res)
		}
		if got := res["table"].(string); got != want {
			t.Fatalf("%d shards: merged table differs:\n%s\nvs\n%s", shards, got, want)
		}
		code, info := doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id, nil, "")
		if code != 200 || info["coordination"].(map[string]any)["shards_done"].(float64) != float64(shards) {
			t.Fatalf("%d shards: state = %d %v", shards, code, info)
		}
	}
}

func TestJobCancel(t *testing.T) {
	ts, _ := newTestAPI(t)
	// A heavyweight campaign so cancellation strikes mid-flight.
	id := launchJob(t, ts, `{"algos": ["cpa", "mcpa"],
		"shapes": ["random", "forkjoin", "wide", "long"],
		"dag_sizes": [40, 80], "cluster_sizes": [32, 64, 128],
		"replicates": 6, "seed": 5}`)
	code, info := doJSON(t, "DELETE", ts.URL+"/api/v1/jobs/"+id, nil, "")
	if code != 200 {
		t.Fatalf("cancel = %d %v", code, info)
	}
	info = pollJob(t, ts, id)
	if info["state"] != "cancelled" {
		t.Fatalf("state after cancel = %v", info["state"])
	}
	// No result for a cancelled job.
	if code, _ := doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id+"/result", nil, ""); code != 409 {
		t.Fatalf("result of cancelled job = %d, want 409", code)
	}
	// Cancelling again is a no-op.
	if code, _ := doJSON(t, "DELETE", ts.URL+"/api/v1/jobs/"+id, nil, ""); code != 200 {
		t.Fatalf("double cancel = %d", code)
	}
}

func TestJobBadInputs(t *testing.T) {
	// The default heartbeat keeps a worker starved of CPU on a busy host
	// from being retired and losing its leases mid-campaign.
	ts, _ := newFleetServer(t, fleet.NewManager(fleet.Config{}), 1)
	// One worker computes a done campaign, then stops: the next campaign
	// stays running with no worker to take its shards, so the not-done
	// checks are deterministic.
	ctx, stopPuller := context.WithCancel(context.Background())
	pulled := make(chan struct{})
	go func() {
		defer close(pulled)
		fleet.RunWorker(ctx, fleet.WorkerConfig{Coordinator: ts.URL, Name: "once", Poll: 10 * time.Millisecond}) //nolint:errcheck // exits on cancel
	}()
	done := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))
	if st := pollJob(t, ts, done); st["state"] != "done" {
		t.Fatalf("campaign %s = %v", done, st)
	}
	stopPuller()
	<-pulled
	running := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))

	for name, check := range map[string]struct {
		method, url, body string
		want              int
	}{
		"bad json":        {"POST", "/api/v1/jobs", "{", 400},
		"unknown field":   {"POST", "/api/v1/jobs", `{"bogus": 1}`, 400},
		"unknown algo":    {"POST", "/api/v1/jobs", `{"algos": ["cpa", "nope"]}`, 400},
		"one algo":        {"POST", "/api/v1/jobs", `{"algos": ["cpa"]}`, 400},
		"bad shape":       {"POST", "/api/v1/jobs", `{"shapes": ["blob"]}`, 400},
		"bad shard":       {"POST", "/api/v1/jobs", `{"shard": "9/2"}`, 400},
		"unknown job":     {"GET", "/api/v1/jobs/j99", "", 404},
		"bad wait":        {"GET", "/api/v1/jobs/" + done + "?wait=x", "", 400},
		"unknown cancel":  {"DELETE", "/api/v1/jobs/j99", "", 404},
		"unknown result":  {"GET", "/api/v1/jobs/j99/result", "", 404},
		"result too soon": {"GET", "/api/v1/jobs/" + running + "/result", "", 409},
		"bad threshold":   {"GET", "/api/v1/jobs/" + done + "/result?threshold=x", "", 400},
	} {
		var body *strings.Reader
		if check.body != "" {
			body = strings.NewReader(check.body)
		} else {
			body = strings.NewReader("")
		}
		code, _ := doJSON(t, check.method, ts.URL+check.url, body, "application/json")
		if code != check.want {
			t.Errorf("%s: code = %d, want %d", name, code, check.want)
		}
	}
}

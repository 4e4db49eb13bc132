package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/jobs"
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
// until the campaign is terminal, then fetches its final state.
func waitCampaign(t *testing.T, ts *httptest.Server, srv *Server, id string) map[string]any {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := srv.Jobs().Wait(ctx, id); err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	code, info := doJSON(t, "GET", ts.URL+"/api/v1/campaigns/"+id, nil, "")
	if code != 200 {
		t.Fatalf("get campaign %s = %d %v", id, code, info)
	}
	return info
}

// TestCoordinatedCampaign runs POST /api/v1/campaigns against two real
// pull workers and checks the merged result equals the campaign run in a
// single process.
func TestCoordinatedCampaign(t *testing.T) {
	ts, srv := newCampaignServer(t, 2)

	spec := fmt.Sprintf(smallJobSpec, `, "shards": 4`)
	code, info := doJSON(t, "POST", ts.URL+"/api/v1/campaigns", strings.NewReader(spec), "application/json")
	if code != 202 {
		t.Fatalf("create campaign = %d %v", code, info)
	}
	id := info["id"].(string)
	if info["kind"] != "campaign" {
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

	code, coordRes := doJSON(t, "GET", ts.URL+"/api/v1/campaigns/"+id+"/result", nil, "")
	if code != 200 {
		t.Fatalf("campaign result = %d %v", code, coordRes)
	}
	if got, want := coordRes["table"].(string), singleProcessTable(t, smallJobSpec); got != want {
		t.Fatalf("coordinated table differs:\n%s\nvs\n%s", got, want)
	}

	code, list := doJSON(t, "GET", ts.URL+"/api/v1/campaigns", nil, "")
	if code != 200 || len(list["campaigns"].([]any)) != 1 {
		t.Fatalf("campaigns list = %d %v", code, list)
	}
}

// singleProcessTable is the summary table `campaign` prints for the spec
// template (filled with no extra fields), run in this process.
func singleProcessTable(t *testing.T, specTmpl string) string {
	t.Helper()
	var spec jobs.CampaignSpec
	if err := json.Unmarshal([]byte(fmt.Sprintf(specTmpl, "")), &spec); err != nil {
		t.Fatal(err)
	}
	cfg, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	if err := res.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	return table.String()
}

func TestCoordinatedCampaignBadInputs(t *testing.T) {
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

// TestCampaignAliasesShareIDs pins the alias contract: /api/v1/jobs and
// /api/v1/campaigns are one surface over one engine, so an ID minted on
// either resolves on both; only the nouns follow the path.
func TestCampaignAliasesShareIDs(t *testing.T) {
	ts, _ := newTestServer(t)
	spec := fmt.Sprintf(smallJobSpec, "")
	ids := map[string]string{}
	for _, surface := range []string{"jobs", "campaigns"} {
		resp, err := http.Post(ts.URL+"/api/v1/"+surface, "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var info map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := info["id"].(string)
		if resp.StatusCode != 202 || resp.Header.Get("Location") != "/api/v1/"+surface+"/"+id {
			t.Fatalf("POST %s = %d, Location %q", surface, resp.StatusCode, resp.Header.Get("Location"))
		}
		ids[surface] = id
	}
	want := singleProcessTable(t, smallJobSpec)
	for _, id := range ids {
		if st := pollJob(t, ts, id); st["state"] != "done" {
			t.Fatalf("campaign %s = %v", id, st)
		}
		for _, surface := range []string{"jobs", "campaigns"} {
			code, info := doJSON(t, "GET", ts.URL+"/api/v1/"+surface+"/"+id, nil, "")
			if code != 200 || info["kind"] != "campaign" || info["coordination"] == nil {
				t.Fatalf("GET %s/%s = %d %v", surface, id, code, info)
			}
			code, res := doJSON(t, "GET", ts.URL+"/api/v1/"+surface+"/"+id+"/result", nil, "")
			if code != 200 || res["table"] != want {
				t.Fatalf("GET %s/%s/result = %d %v", surface, id, code, res)
			}
		}
	}
	for _, surface := range []string{"jobs", "campaigns"} {
		code, list := doJSON(t, "GET", ts.URL+"/api/v1/"+surface+"?kind=campaign", nil, "")
		if code != 200 || len(list[surface].([]any)) != 2 || list["total"].(float64) != 2 {
			t.Fatalf("list %s = %d %v", surface, code, list)
		}
		noun := strings.TrimSuffix(surface, "s")
		if status, code, _ := getError(t, ts.URL+"/api/v1/"+surface+"/j99"); status != 404 || code != noun+"_not_found" {
			t.Fatalf("unknown on %s = %d %q", surface, status, code)
		}
	}
}

// TestCampaignCancelFreesLocalWorker cancels a campaign whose only shard
// the in-process worker is computing — a shard of hundreds of cells, far
// longer than the test runs — and checks the worker takes the next
// campaign's shards at once: the cancellation ends the shard's context
// with its run.
func TestCampaignCancelFreesLocalWorker(t *testing.T) {
	ts, srv := newTestServer(t)
	sizes := make([]string, 40)
	for i := range sizes {
		sizes[i] = fmt.Sprint(20 + i)
	}
	heavy := `{"algos": ["cpa", "mcpa"], "dag_sizes": [` + strings.Join(sizes, ",") +
		`], "replicates": 20, "seed": 3, "shards": 1}`
	code, info := doJSON(t, "POST", ts.URL+"/api/v1/campaigns", strings.NewReader(heavy), "application/json")
	if code != 202 {
		t.Fatalf("create heavy = %d %v", code, info)
	}
	id := info["id"].(string)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, info = doJSON(t, "GET", ts.URL+"/api/v1/campaigns/"+id, nil, "")
		shards := info["coordination"].(map[string]any)["shard"].([]any)
		if shards[0].(map[string]any)["state"] == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heavy shard never leased: %v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/api/v1/campaigns/"+id, nil, ""); code != 200 {
		t.Fatalf("cancel = %d", code)
	}

	start := time.Now()
	next := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))
	if st := pollJob(t, ts, next); st["state"] != "done" {
		t.Fatalf("next campaign = %v", st)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("next campaign took %v behind the cancelled shard", took)
	}
	final := waitCampaign(t, ts, srv, id)
	if final["state"] != "cancelled" || final["progress"].(map[string]any)["done"].(float64) != 0 {
		t.Fatalf("cancelled campaign = %v", final)
	}
}

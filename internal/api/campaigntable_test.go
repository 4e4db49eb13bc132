package api

// Campaign table tests: the order in which a finished campaign's record,
// run journal and waiters settle. The table's other behaviours — run
// slots, cancellation, retention, ?wait=, shutdown and recovery — are
// pinned over HTTP by the tests of internal/jobs.

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestCampaignTableOrdering pins the order a finished campaign settles in:
// once ?wait= answers done, its record is terminal in the store and its run
// journal is gone; and neither a submission record written after the
// finish nor a late DELETE changes the finished state.
func TestCampaignTableOrdering(t *testing.T) {
	h := startPersistServer(t, t.TempDir(), "")
	defer h.stop(t)
	for i := 0; i < 3; i++ {
		id := launchJob(t, h.ts, fmt.Sprintf(smallJobSpec, `, "shards": 2`))
		code, info := doJSON(t, "GET", h.ts.URL+"/api/v1/campaigns/"+id+"?wait=60s", nil, "")
		if code != 200 || info["state"] != "done" {
			t.Fatalf("%s = %d %v", id, code, info)
		}
		if st := storedState(t, h, id); st.State != stateDone || st.Outcome == nil || st.Done != st.Total {
			t.Fatalf("%s stored as %+v once ?wait= answered done", id, st)
		}
		if keys := runKeys(t, h.ps, id); len(keys) != 0 {
			t.Fatalf("%s kept its run journal once ?wait= answered done: %v", id, keys)
		}
		rec, _ := h.srv.campaigns.get(id)
		h.srv.journal(rec, false) // a submission record, late
		if st := storedState(t, h, id); st.State != stateDone || st.Outcome == nil {
			t.Fatalf("a late submission record overwrote %s: %+v", id, st)
		}
		if code, info := doJSON(t, "DELETE", h.ts.URL+"/api/v1/campaigns/"+id, nil, ""); code != 200 || info["state"] != "done" {
			t.Fatalf("cancel after done = %d %v", code, info)
		}
	}
}

// storedState reads campaign id's record from the server's store.
func storedState(t *testing.T, h *persistHarness, id string) campaignStatus {
	t.Helper()
	raw, found, err := h.ps.Get(jobsNS, id)
	if err != nil || !found {
		t.Fatalf("record %s found=%v (err %v)", id, found, err)
	}
	var st campaignStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

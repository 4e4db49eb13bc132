package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/persist"
)

// campaignFn runs the whole campaign of spec in-process — a stand-in for
// the coordinated run the API server submits.
func campaignFn(spec CampaignSpec) (Fn, int, error) {
	cfg, _, err := spec.Resolve()
	if err != nil {
		return nil, 0, err
	}
	return func(ctx context.Context, j *Job) (any, error) {
		res, err := campaign.RunContext(ctx, cfg, campaign.RunOptions{})
		if err != nil {
			return nil, err
		}
		j.Advance(len(res.Cells))
		return &CampaignOutcome{Header: campaign.NewHeader(cfg), Result: res}, nil
	}, len(campaign.Cells(cfg)), nil
}

// resumeCampaign is the Resumer of these tests: the descriptor is the
// spec JSON.
func resumeCampaign(_ string, meta []byte) (Fn, int, error) {
	var spec CampaignSpec
	if err := json.Unmarshal(meta, &spec); err != nil {
		return nil, 0, err
	}
	return campaignFn(spec)
}

// submitCampaign queues spec with its JSON as the persisted descriptor.
func submitCampaign(t *testing.T, e *Engine, spec CampaignSpec) *Job {
	t.Helper()
	meta, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	fn, total, err := campaignFn(spec)
	if err != nil {
		t.Fatal(err)
	}
	return e.SubmitWithMeta(KindCampaign, total, meta, fn)
}

// restartEngine simulates a process restart against the same store: a fresh
// engine with a fresh persister journaling into the same namespace.
func restartEngine(t *testing.T, ps persist.Store, workers int) (*Engine, *Persister, RecoverStats) {
	t.Helper()
	e := newTestEngine(t, workers)
	p := NewPersister(ps, "jobs")
	e.SetJournal(p)
	stats, err := p.Recover(e, resumeCampaign)
	if err != nil {
		t.Fatal(err)
	}
	return e, p, stats
}

// outcomeJSON is the byte-identity yardstick: what /jobs/{id}/result
// ultimately serializes.
func outcomeJSON(t *testing.T, j *Job) []byte {
	t.Helper()
	out, err := CampaignResult(j)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPersistTerminalRoundTrip(t *testing.T) {
	ps := persist.Memory()
	e1, p1, _ := restartEngine(t, ps, 2)
	j := submitCampaign(t, e1, smallSpec())
	waitState(t, j, Done)
	want := outcomeJSON(t, j)
	if n := p1.Errors(); n != 0 {
		t.Fatalf("persist errors = %d", n)
	}

	e2, _, stats := restartEngine(t, ps, 2)
	if stats.Restored != 1 || stats.Resumed != 0 || stats.Interrupted != 0 {
		t.Fatalf("recover stats = %+v", stats)
	}
	j2, ok := e2.Get(j.ID())
	if !ok {
		t.Fatalf("job %s not restored", j.ID())
	}
	st := j2.Status()
	if st.State != Done || st.Done != st.Total {
		t.Fatalf("restored status = %+v", st)
	}
	if got := outcomeJSON(t, j2); !bytes.Equal(got, want) {
		t.Fatalf("restored result differs:\n%s\nvs\n%s", got, want)
	}
	// The restored ID must be burned: the next submission picks a fresh one.
	next := e2.Submit("demo", 1, func(context.Context, *Job) (any, error) { return nil, nil })
	if next.ID() == j.ID() {
		t.Fatalf("sequence not bumped past restored %s", j.ID())
	}
}

// TestPersistResumeInterruptedCampaign fabricates the record a crash leaves
// behind — running, no terminal write — and checks Recover hands its ID and
// descriptor to the resumer and re-queues the rebuilt work under that ID.
func TestPersistResumeInterruptedCampaign(t *testing.T) {
	spec := smallSpec()
	cfg, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ps := persist.Memory()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := jobRecord{
		ID: "j1", Kind: KindCampaign, State: Running,
		Done: 2, Total: len(direct.Cells),
		Created: time.Now(), Started: time.Now(),
		Spec: specJSON,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.PutDurable("jobs", rec.ID, b); err != nil {
		t.Fatal(err)
	}

	e := newTestEngine(t, 2)
	p := NewPersister(ps, "jobs")
	e.SetJournal(p)
	var gotID string
	var gotMeta []byte
	stats, err := p.Recover(e, func(id string, meta []byte) (Fn, int, error) {
		gotID, gotMeta = id, meta
		return resumeCampaign(id, meta)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 1 || stats.Restored != 0 || stats.Interrupted != 0 {
		t.Fatalf("recover stats = %+v", stats)
	}
	if gotID != "j1" || !bytes.Equal(gotMeta, specJSON) {
		t.Fatalf("resumer got %q %s", gotID, gotMeta)
	}
	j, ok := e.Get("j1")
	if !ok {
		t.Fatal("resumed job not listed")
	}
	st := waitState(t, j, Done)
	if st.Done != st.Total {
		t.Fatalf("progress = %d/%d", st.Done, st.Total)
	}
	out, err := CampaignResult(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(out.Result)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs:\n%s\nvs\n%s", got, want)
	}
	// A later submission must not reuse the resumed ID.
	if next := e.Submit("demo", 0, func(context.Context, *Job) (any, error) { return nil, nil }); next.ID() == "j1" {
		t.Fatal("sequence not bumped past the resumed job")
	}
}

// TestPersistInterruptedUnknownKind covers the jobs a restart cannot
// resume: no descriptor at all, and one the resumer rejects. Both come back
// failed.
func TestPersistInterruptedUnknownKind(t *testing.T) {
	ps := persist.Memory()
	for _, rec := range []jobRecord{
		{ID: "j1", Kind: "demo", State: Running, Total: 3, Created: time.Now()},
		{ID: "j2", Kind: KindCampaign, State: Running, Created: time.Now(), Spec: []byte(`{"algos":["cpa"]}`)},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.PutDurable("jobs", rec.ID, b); err != nil {
			t.Fatal(err)
		}
	}

	e, _, stats := restartEngine(t, ps, 1)
	if stats.Interrupted != 2 || stats.Resumed != 0 {
		t.Fatalf("recover stats = %+v", stats)
	}
	for _, id := range []string{"j1", "j2"} {
		j, ok := e.Get(id)
		if !ok {
			t.Fatalf("interrupted job %s not listed", id)
		}
		st := j.Status()
		if st.State != Failed || !strings.Contains(st.Err, "interrupted by server restart") {
			t.Fatalf("status = %+v", st)
		}
	}
	// The rewritten records are terminal: the next restart restores, not
	// re-interrupts.
	_, _, again := restartEngine(t, ps, 1)
	if again.Restored != 2 || again.Interrupted != 0 {
		t.Fatalf("second recover stats = %+v", again)
	}
}

// TestPersistAdopt folds the records of a second engine's namespace into
// the journal's own: same IDs, campaign kind, the old namespace emptied,
// and an undecodable record dropped and counted.
func TestPersistAdopt(t *testing.T) {
	j := submitCampaign(t, newTestEngine(t, 1), smallSpec())
	waitState(t, j, Done)
	want := outcomeJSON(t, j)
	rec := (&Persister{}).record(j)
	rec.ID, rec.Kind = "c1", "campaign-coordinated"
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	ps := persist.Memory()
	for key, val := range map[string][]byte{"c1": b, "c2": []byte("{torn")} {
		if err := ps.Put("cjobs", key, val); err != nil {
			t.Fatal(err)
		}
	}

	e := newTestEngine(t, 1)
	p := NewPersister(ps, "jobs")
	e.SetJournal(p)
	if err := p.Adopt("cjobs"); err != nil {
		t.Fatal(err)
	}
	if p.Errors() != 1 {
		t.Fatalf("errors = %d, want 1 for the torn record", p.Errors())
	}
	if left, _ := ps.Load("cjobs"); len(left) != 0 {
		t.Fatalf("old namespace keeps %d records", len(left))
	}
	stats, err := p.Recover(e, resumeCampaign)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restored != 1 {
		t.Fatalf("recover stats = %+v", stats)
	}
	got, ok := e.Get("c1")
	if !ok {
		t.Fatal("adopted job not listed under its own ID")
	}
	if st := got.Status(); st.Kind != KindCampaign || st.State != Done {
		t.Fatalf("adopted status = %+v", st)
	}
	if b := outcomeJSON(t, got); !bytes.Equal(b, want) {
		t.Fatalf("adopted result differs:\n%s\nvs\n%s", b, want)
	}
}

func TestEvictionNotifiesJournal(t *testing.T) {
	ps := persist.Memory()
	e, _, _ := restartEngine(t, ps, 2)
	quick := func(context.Context, *Job) (any, error) { return "ok", nil }
	j1 := e.Submit("demo", 1, quick)
	j2 := e.Submit("demo", 1, quick)
	waitState(t, j1, Done)
	waitState(t, j2, Done)

	e.SetRetention(1)
	if n := e.Evictions(); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
	if _, ok := e.Get(j1.ID()); ok {
		t.Fatal("oldest job survived the retention cap")
	}
	if _, found, err := ps.Get("jobs", j1.ID()); err != nil || found {
		t.Fatalf("evicted record still persisted (found=%v err=%v)", found, err)
	}
	if _, found, err := ps.Get("jobs", j2.ID()); err != nil || !found {
		t.Fatalf("retained record missing (found=%v err=%v)", found, err)
	}
}

package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/events"
)

// The campaign table holds every campaign the server knows, whichever
// alias submitted it: live ones, and the last campaignRetain terminal ones
// whose results are still fetchable. Each campaign runs on its own
// goroutine, which takes one of campaignSlots run slots before its
// coordinator's Run; a campaign waiting for a slot is pending. A run is
// mostly waiting on its fleet, so the slots bound concurrent campaigns,
// not CPU.
//
// With persistence on, the table journals one record per campaign into
// namespace jobsNS (written when submitted, durably when terminal), and
// each run journals its header and cells under runNS; a restarted server
// restores terminal records and resumes interrupted runs under their own
// IDs. Close is a shutdown, not a cancellation: it stops the runs and
// leaves their records and run journals for the next process to resume.

// The campaign lifecycle: pending → running → done, failed or cancelled.
// DELETE can also cancel a campaign while it is still pending.
const (
	statePending   = "pending"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

func terminal(state string) bool {
	return state == stateDone || state == stateFailed || state == stateCancelled
}

const (
	campaignSlots  = 4   // campaigns running at once
	campaignRetain = 256 // terminal campaigns kept for result fetches
	jobsNS         = "jobs"
	kindCampaign   = "campaign"
)

// errShutdown is the cancellation cause Close gives the runs it stops.
var errShutdown = errors.New("api: server shut down")

// campaignOutcome is a done campaign's result plus the campaign identity
// header it ran under. Its untagged field names are the persisted keys.
type campaignOutcome struct {
	Header campaign.Header
	Result *campaign.Result
}

// campaignStatus is a campaign's state as the jobs namespace stores it,
// one record per ID. Spec is the campaignRequest as submitted, from which
// a restarted server resumes the run.
type campaignStatus struct {
	ID       string           `json:"id"`
	Kind     string           `json:"kind"`
	State    string           `json:"state"`
	Done     int              `json:"done"`
	Total    int              `json:"total"`
	Err      string           `json:"err,omitempty"`
	Created  time.Time        `json:"created"`
	Started  time.Time        `json:"started,omitzero"`
	Finished time.Time        `json:"finished,omitzero"`
	Spec     json.RawMessage  `json:"spec,omitempty"`
	Outcome  *campaignOutcome `json:"outcome,omitempty"`
}

// campaignRecord is one campaign of the table.
type campaignRecord struct {
	id string
	// c runs the campaign; nil for a record restored as terminal. While it
	// exists, the campaign's progress is its live cell count.
	c *coord.Coordinator
	// ctx is the run's context: DELETE cancels it with context.Canceled,
	// Close with errShutdown.
	ctx    context.Context
	cancel context.CancelCauseFunc
	// finished is closed once the campaign is terminal and on record.
	finished chan struct{}
	st       campaignStatus // guarded by campaignTable.mu
}

func newRecord(st campaignStatus) *campaignRecord {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &campaignRecord{id: st.ID, ctx: ctx, cancel: cancel, finished: make(chan struct{}), st: st}
}

type campaignTable struct {
	mu     sync.Mutex
	seq    int // the N of the last minted ID "jN"
	byID   map[string]*campaignRecord
	order  []*campaignRecord // submission order
	closed bool
	retain int
	slots  chan struct{}
	runs   sync.WaitGroup // one per campaign goroutine

	// jmu orders the writes of campaign records. A record is read under
	// it, so a submission record written after the campaign finished
	// carries the finished state instead of overwriting it.
	jmu       sync.Mutex
	jerrs     atomic.Int64 // failed record writes
	evictions atomic.Int64
}

func newCampaignTable() *campaignTable {
	return &campaignTable{
		byID:   map[string]*campaignRecord{},
		retain: campaignRetain,
		slots:  make(chan struct{}, campaignSlots),
	}
}

func (t *campaignTable) get(id string) (*campaignRecord, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.byID[id]
	return rec, ok
}

func (t *campaignTable) list() []*campaignRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*campaignRecord(nil), t.order...)
}

// pending counts the campaigns waiting for a run slot.
func (t *campaignTable) pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, rec := range t.order {
		if rec.st.State == statePending {
			n++
		}
	}
	return n
}

// status snapshots rec, and the coordinator's progress when it has one.
func (t *campaignTable) status(rec *campaignRecord) (campaignStatus, *coord.Progress) {
	t.mu.Lock()
	st := rec.st
	t.mu.Unlock()
	if rec.c == nil {
		return st, nil
	}
	p := rec.c.Progress()
	st.Done = p.CellsDone
	return st, &p
}

// add files a recovered record under its own ID and keeps the ID sequence
// past it.
func (t *campaignTable) add(rec *campaignRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byID[rec.id] = rec
	t.order = append(t.order, rec)
	if num, ok := strings.CutPrefix(rec.id, "j"); ok {
		if n, err := strconv.Atoi(num); err == nil && n > t.seq {
			t.seq = n
		}
	}
}

// pruneLocked drops the oldest terminal records beyond the retention cap
// and returns their IDs.
func (t *campaignTable) pruneLocked() []string {
	n := 0
	for _, rec := range t.order {
		if terminal(rec.st.State) {
			n++
		}
	}
	var evicted []string
	kept := t.order[:0]
	for _, rec := range t.order {
		if n > t.retain && terminal(rec.st.State) {
			n--
			delete(t.byID, rec.id)
			evicted = append(evicted, rec.id)
			continue
		}
		kept = append(kept, rec)
	}
	t.order = kept
	return evicted
}

// submitCampaign files a new campaign, whose coordinator newCampaign
// built, under the next ID and starts it, and returns its state as filed:
// a campaign may finish before the submitter answers. After Close it is
// failed at once and neither runs nor is journaled.
func (s *Server) submitCampaign(rec *campaignRecord) campaignInfo {
	t := s.campaigns
	t.mu.Lock()
	t.seq++
	rec.id = fmt.Sprintf("j%d", t.seq)
	rec.st.ID = rec.id
	t.byID[rec.id] = rec
	t.order = append(t.order, rec)
	if t.closed {
		rec.st.State, rec.st.Err, rec.st.Finished = stateFailed, errShutdown.Error(), time.Now()
		t.mu.Unlock()
		close(rec.finished)
		s.publishJob(rec, stateFailed)
		return s.campaignInfoOf(rec)
	}
	evicted := t.pruneLocked()
	t.runs.Add(1)
	t.mu.Unlock()
	info := s.campaignInfoOf(rec)
	s.journal(rec, false)
	s.publishJob(rec, "submitted")
	s.evict(evicted)
	go s.runCampaign(rec, false)
	return info
}

// runCampaign is a campaign's goroutine: wait for a run slot, run the
// coordinator over the cells its run journal holds (resume), and settle
// the outcome. A run stopped by Close ends without a trace.
func (s *Server) runCampaign(rec *campaignRecord, resume bool) {
	t := s.campaigns
	defer t.runs.Done()
	select {
	case t.slots <- struct{}{}:
		defer func() { <-t.slots }()
	case <-rec.ctx.Done():
		return
	}
	t.mu.Lock()
	if rec.st.State != statePending || rec.ctx.Err() != nil {
		t.mu.Unlock()
		return
	}
	rec.st.State, rec.st.Started = stateRunning, time.Now()
	t.mu.Unlock()
	s.publishJob(rec, "started")

	var done []campaign.Cell
	var err error
	if s.persist != nil {
		done, err = s.openRunJournal(rec.id, rec.c.Header(), resume)
	}
	var res *campaign.Result
	if err == nil {
		res, err = rec.c.Run(rec.ctx, done)
	}
	if err != nil && context.Cause(rec.ctx) == errShutdown {
		return
	}
	t.mu.Lock()
	switch {
	case err == nil:
		rec.st.State, rec.st.Outcome = stateDone, &campaignOutcome{Header: rec.c.Header(), Result: res}
	case errors.Is(err, context.Canceled) || rec.ctx.Err() != nil:
		rec.st.State, rec.st.Err = stateCancelled, err.Error()
	default:
		rec.st.State, rec.st.Err = stateFailed, err.Error()
	}
	rec.st.Finished = time.Now()
	state := rec.st.State
	t.mu.Unlock()
	s.settle(rec, state)
}

// cancelRecord requests cancellation: a pending campaign is cancelled at
// once, a running one when its Run returns. Terminal campaigns are
// unaffected.
func (s *Server) cancelRecord(rec *campaignRecord) {
	rec.cancel(context.Canceled)
	t := s.campaigns
	t.mu.Lock()
	pending := rec.st.State == statePending
	if pending {
		rec.st.State, rec.st.Err, rec.st.Finished = stateCancelled, context.Canceled.Error(), time.Now()
	}
	t.mu.Unlock()
	if pending {
		s.settle(rec, stateCancelled)
	}
}

// settle completes a terminal transition in the order readers rely on: the
// terminal record is durable first, then the run journal is dropped, then
// ?wait= returns, and the terminal event fires last.
func (s *Server) settle(rec *campaignRecord, state string) {
	if s.persist != nil {
		s.journal(rec, true)
		s.persist.DeletePrefix(runNS, rec.id+"/") //nolint:errcheck // dropRunJournals retries on the next start
	}
	close(rec.finished)
	s.publishJob(rec, state)
}

// publishJob puts one job event about rec on the bus.
func (s *Server) publishJob(rec *campaignRecord, change string) {
	st, _ := s.campaigns.status(rec)
	s.bus.Publish(events.TopicJob, change, rec.id, infoOfStatus(st))
}

// Close stops every run and waits for their goroutines, then stops the
// in-process worker. A shutdown is not a cancellation: records keep the
// state they had and run journals stay, so the next process resumes the
// runs.
func (s *Server) Close() {
	t := s.campaigns
	t.mu.Lock()
	t.closed = true
	recs := append([]*campaignRecord(nil), t.order...)
	t.mu.Unlock()
	for _, rec := range recs {
		rec.cancel(errShutdown)
	}
	t.runs.Wait()
	s.stopLocal()
}

// journal writes rec's record, durably for a terminal one. Best-effort: a
// failed write is counted, never propagated into the run.
func (s *Server) journal(rec *campaignRecord, durable bool) {
	if s.persist == nil {
		return
	}
	t := s.campaigns
	t.jmu.Lock()
	defer t.jmu.Unlock()
	st, _ := t.status(rec)
	s.writeRecord(st, durable)
}

func (s *Server) writeRecord(st campaignStatus, durable bool) {
	b, err := json.Marshal(st)
	if err == nil {
		if durable {
			err = s.persist.PutDurable(jobsNS, st.ID, b)
		} else {
			err = s.persist.Put(jobsNS, st.ID, b)
		}
	}
	if err != nil {
		s.campaigns.jerrs.Add(1)
	}
}

// evict counts the records the retention cap dropped and deletes them from
// the journal.
func (s *Server) evict(ids []string) {
	t := s.campaigns
	t.evictions.Add(int64(len(ids)))
	if s.persist == nil || len(ids) == 0 {
		return
	}
	t.jmu.Lock()
	defer t.jmu.Unlock()
	for _, id := range ids {
		if err := s.persist.Delete(jobsNS, id); err != nil {
			t.jerrs.Add(1)
		}
	}
}

// RecoverStats summarizes what EnablePersistence restored, served on
// /api/v1/meta.
type RecoverStats struct {
	// Restored counts terminal campaigns re-listed with their results.
	Restored int `json:"restored"`
	// Resumed counts interrupted campaigns running again under their IDs.
	Resumed int `json:"resumed"`
	// Interrupted counts campaigns that could not resume (no or bad
	// request on record); they come back failed.
	Interrupted int `json:"interrupted"`
}

// recoverCampaigns replays the records of a previous process: terminal
// campaigns come back as they were, interrupted ones resume under their
// own IDs, and the rest come back failed, rewritten so the next restart
// agrees.
func (s *Server) recoverCampaigns() (RecoverStats, error) {
	var stats RecoverStats
	records, err := s.persist.Load(jobsNS)
	if err != nil {
		return stats, err
	}
	ids := make([]string, 0, len(records))
	for id := range records {
		ids = append(ids, id)
	}
	// Shorter-then-lexical sorts "j2" before "j10": submission order.
	sort.Slice(ids, func(a, b int) bool {
		if len(ids[a]) != len(ids[b]) {
			return len(ids[a]) < len(ids[b])
		}
		return ids[a] < ids[b]
	})
	t := s.campaigns
	for _, id := range ids {
		var st campaignStatus
		if err := json.Unmarshal(records[id], &st); err != nil || st.ID != id {
			t.jerrs.Add(1)
			continue
		}
		if !terminal(st.State) {
			if rec, ok := s.resumable(st); ok {
				t.add(rec)
				t.runs.Add(1)
				s.publishJob(rec, "submitted")
				go s.runCampaign(rec, true)
				stats.Resumed++
				continue
			}
			st.State, st.Err, st.Outcome = stateFailed, "interrupted by server restart", nil
			if st.Finished.IsZero() {
				st.Finished = time.Now()
			}
			s.writeRecord(st, true)
			stats.Interrupted++
		} else {
			stats.Restored++
		}
		rec := newRecord(st)
		close(rec.finished)
		t.add(rec)
	}
	return stats, nil
}

// resumable rebuilds an interrupted campaign from its record, pending again
// under its own ID; ok is false without a request that still builds one.
func (s *Server) resumable(st campaignStatus) (*campaignRecord, bool) {
	var req campaignRequest
	if len(st.Spec) == 0 || json.Unmarshal(st.Spec, &req) != nil {
		return nil, false
	}
	rec := newRecord(campaignStatus{ID: st.ID, Kind: kindCampaign, State: statePending,
		Created: st.Created, Spec: st.Spec})
	if err := s.newCampaign(rec, req, nil); err != nil {
		return nil, false
	}
	return rec, true
}

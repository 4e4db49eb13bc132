package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/events"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/persist"
)

// Campaign surface: POST /api/v1/campaigns runs one campaign as a job on
// the server's engine — a coord.Coordinator queueing the campaign's shards
// on the server's fleet (the in-process worker, or the jedserve -join
// workers of a -fleet server) and merging what comes back. GET polls
// (?wait= long-polls), DELETE cancels, and /result serves the merged
// summary once done. /api/v1/jobs is an alias of the same routes: an ID
// minted on either surface resolves on both, and only the nouns on the
// wire (error codes, the list key, the Location header) follow the path the
// client used.

// shardEvent is the payload of topic "shard" events: the coordinator's
// per-shard progress snapshot plus the campaign job it belongs to.
type shardEvent struct {
	Campaign string `json:"campaign"`
	coord.ShardProgress
}

// campaignTracker pairs the engine job with its coordinator so progress
// snapshots survive while the run is in flight. Entries are pruned lazily
// when the engine's retention cap drops the job.
type campaignTracker struct {
	mu   sync.Mutex
	runs map[string]*coord.Coordinator
}

func (t *campaignTracker) put(id string, c *coord.Coordinator) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.runs == nil {
		t.runs = map[string]*coord.Coordinator{}
	}
	t.runs[id] = c
}

func (t *campaignTracker) get(id string) (*coord.Coordinator, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.runs[id]
	return c, ok
}

// prune drops the trackers of jobs the engine no longer retains.
func (t *campaignTracker) prune(e *jobs.Engine) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range t.runs {
		if _, ok := e.Get(id); !ok {
			delete(t.runs, id)
		}
	}
}

// campaignRequest is the body of POST /api/v1/campaigns: the campaign spec
// plus the fan-out knobs. Shard stays forbidden — the coordinator owns the
// sharding. It is also the job's persisted descriptor, from which a
// restarted server resumes the campaign.
type campaignRequest struct {
	jobs.CampaignSpec
	Shards      int `json:"shards,omitempty"`
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// jobInfo is the JSON description of one campaign job.
type jobInfo struct {
	ID       string      `json:"id"`
	Kind     string      `json:"kind"`
	State    string      `json:"state"`
	Progress jobProgress `json:"progress"`
	Error    string      `json:"error,omitempty"`
	Created  time.Time   `json:"created"`
	Started  *time.Time  `json:"started,omitempty"`
	Finished *time.Time  `json:"finished,omitempty"`
}

type jobProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

func infoOfJob(j *jobs.Job) jobInfo {
	st := j.Status()
	info := jobInfo{
		ID: st.ID, Kind: st.Kind, State: string(st.State),
		Progress: jobProgress{Done: st.Done, Total: st.Total},
		Error:    st.Err,
		Created:  st.Created,
	}
	if !st.Started.IsZero() {
		info.Started = &st.Started
	}
	if !st.Finished.IsZero() {
		info.Finished = &st.Finished
	}
	return info
}

// campaignInfo is the wire state of one campaign: the job plus the
// coordinator's aggregate progress.
type campaignInfo struct {
	jobInfo
	Coordination *coord.Progress `json:"coordination,omitempty"`
}

func (s *Server) campaignInfoOf(j *jobs.Job) campaignInfo {
	info := campaignInfo{jobInfo: infoOfJob(j)}
	if c, ok := s.campaigns.get(j.ID()); ok {
		p := c.Progress()
		info.Coordination = &p
	}
	return info
}

// surface names the alias a request came in on: "job" or "campaign".
func surface(r *http.Request) string {
	if strings.HasPrefix(r.URL.Path, "/api/v1/jobs") {
		return "job"
	}
	return "campaign"
}

// newCampaign builds the coordinator of one campaign request and the job
// body that runs it. With persistence on, the job journals the run under
// its own ID, so a restarted server resumes it (resume=true) from the cells
// the run journal holds.
func (s *Server) newCampaign(req campaignRequest, trace *obs.Trace, resume bool) (*coord.Coordinator, jobs.Fn, error) {
	// The job handle does not exist until after submission; the job body
	// sets it before Run, whose goroutine is the only caller of the
	// observers below.
	var job *jobs.Job
	cfg := coord.Config{
		Fleet:       s.campaignFleet(),
		MinWorkers:  s.fleetMin,
		Spec:        req.CampaignSpec,
		Shards:      req.Shards,
		MaxAttempts: req.MaxAttempts,
		Metrics:     s.metrics,
		// The request's trace (minted or adopted by the obs middleware)
		// rides every shard lease, so one ID submitted on POST shows up in
		// each worker's log.
		Trace: trace,
	}
	if s.persist != nil {
		cfg.OnCell = func(cell campaign.Cell) error {
			s.journalCell(job.ID(), cell)
			return nil
		}
	}
	var c *coord.Coordinator
	cfg.OnShard = func(sp coord.ShardProgress) {
		// Progress counts every cell the run holds, resumed ones too.
		if n := c.Progress().CellsDone - job.Status().Done; n > 0 {
			job.Advance(n)
		}
		// Shard events are keyed by the campaign job, so one SSE filter
		// (?campaign=j3) follows the whole fan-out.
		s.bus.Publish(events.TopicShard, sp.State, job.ID(), shardEvent{Campaign: job.ID(), ShardProgress: sp})
	}
	c, err := coord.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return c, func(ctx context.Context, j *jobs.Job) (any, error) {
		job = j
		var done []campaign.Cell
		if s.persist != nil {
			var err error
			if done, err = s.openRunJournal(j.ID(), c.Header(), resume); err != nil {
				return nil, err
			}
		}
		res, err := c.Run(ctx, done)
		if err != nil {
			return nil, err
		}
		return &jobs.CampaignOutcome{Header: c.Header(), Result: res}, nil
	}, nil
}

// runNS is the persistence namespace of the campaign run journals. Under
// each campaign job's ID it holds the run's identity header
// ("<job>/header", written durably) and one best-effort record per merged
// cell ("<job>/c/%08d"), from which a restarted server resumes the run
// without computing those cells again. A job drops its journal when it
// reaches a terminal state.
const runNS = "runs"

// openRunJournal prepares the run journal of campaign job id and returns
// the cells to resume from. With resume and a journaled header, the header
// must be h and the journaled cells come back; otherwise any stale record
// under the ID is dropped and h is written, so the next resume can verify
// that the journal belongs to this campaign.
func (s *Server) openRunJournal(id string, h campaign.Header, resume bool) ([]campaign.Cell, error) {
	ps := s.persist
	if resume {
		raw, ok, err := ps.Get(runNS, id+"/header")
		if err != nil {
			return nil, err
		}
		if ok {
			var got campaign.Header
			if err := json.Unmarshal(raw, &got); err != nil {
				return nil, fmt.Errorf("run %s: corrupt journaled header: %w", id, err)
			}
			if err := got.Equal(h); err != nil {
				return nil, fmt.Errorf("run %s: %w", id, err)
			}
			records, err := ps.Load(runNS)
			if err != nil {
				return nil, err
			}
			var cells []campaign.Cell
			for k, v := range records {
				var cell campaign.Cell
				if !strings.HasPrefix(k, id+"/c/") || json.Unmarshal(v, &cell) != nil {
					continue // a corrupt cell just gets recomputed
				}
				cells = append(cells, cell)
			}
			return cells, nil
		}
	}
	if err := ps.DeletePrefix(runNS, id+"/"); err != nil {
		return nil, err
	}
	b, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	return nil, ps.PutDurable(runNS, id+"/header", b)
}

// journalCell records one merged cell of job id's run. Best-effort: a lost
// record only means computing the cell again after a crash, never a wrong
// result.
func (s *Server) journalCell(id string, cell campaign.Cell) {
	if b, err := json.Marshal(cell); err == nil {
		s.persist.Put(runNS, fmt.Sprintf("%s/c/%08d", id, cell.Index), b) //nolint:errcheck // best-effort, as above
	}
}

// dropRunJournals drops the run journal of every job that will not run
// again: a job the engine does not hold, or one that is terminal. Called
// after Recover, it catches the journals of jobs restored as terminal or
// failed as interrupted, whose drop a crash cut off.
func (s *Server) dropRunJournals() error {
	records, err := s.persist.Load(runNS)
	if err != nil {
		return err
	}
	ended := map[string]bool{}
	for k := range records {
		id, _, _ := strings.Cut(k, "/")
		if j, ok := s.jobs.Get(id); !ok || j.Status().State.Terminal() {
			ended[id] = true
		}
	}
	for id := range ended {
		if err := s.persist.DeletePrefix(runNS, id+"/"); err != nil {
			return err
		}
	}
	return nil
}

// jobJournal is the engine's journal: the job records, plus the drop of a
// job's run journal once the job is terminal — after its terminal record is
// durable, so a crash in between leaves a journal for dropRunJournals, never
// a job resumed without one.
type jobJournal struct {
	*jobs.Persister
	ps persist.Store
}

func (jj jobJournal) JobFinished(j *jobs.Job) {
	jj.Persister.JobFinished(j)
	jj.ps.DeletePrefix(runNS, j.ID()+"/") //nolint:errcheck // dropRunJournals retries on the next start
}

// resumeCampaign is the jobs.Resumer of a restarted server: it rebuilds an
// interrupted campaign from its persisted request, resuming the run
// journaled under the job's ID.
func (s *Server) resumeCampaign(id string, meta []byte) (jobs.Fn, int, error) {
	var req campaignRequest
	if err := json.Unmarshal(meta, &req); err != nil {
		return nil, 0, err
	}
	c, fn, err := s.newCampaign(req, nil, true)
	if err != nil {
		return nil, 0, err
	}
	s.campaigns.put(id, c)
	return fn, c.Cells(), nil
}

// createCampaign validates the request, builds its coordinator, and runs
// it as a job on the engine; 202 with the poll URL.
func (s *Server) createCampaign(w http.ResponseWriter, r *http.Request) {
	noun := surface(r)
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	defer body.Close()
	var req campaignRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_spec", "bad %s spec: %v", noun, err)
		return
	}
	c, fn, err := s.newCampaign(req, obs.FromContext(r.Context()), false)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_spec", "%v", err)
		return
	}
	meta, _ := json.Marshal(req) // plain strings and numbers: cannot fail
	j := s.jobs.SubmitWithMeta(jobs.KindCampaign, c.Cells(), meta, fn)
	s.campaigns.put(j.ID(), c)
	s.campaigns.prune(s.jobs)
	w.Header().Set("Location", r.URL.Path+"/"+j.ID())
	writeJSON(w, http.StatusAccepted, s.campaignInfoOf(j))
}

// campaignJob resolves {id} to a campaign job.
func (s *Server) campaignJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		noun := surface(r)
		writeError(w, http.StatusNotFound, noun+"_not_found", "no %s %q", noun, id)
		return nil, false
	}
	return j, true
}

// listCampaigns lists the engine's jobs in submission order (a stable
// order: IDs are minted monotonically). ?state= and ?kind= filter before
// pagination, so total counts the matches, not the whole engine.
func (s *Server) listCampaigns(w http.ResponseWriter, r *http.Request) {
	pg, ok := parsePage(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	state, kind := q.Get("state"), q.Get("kind")
	if state != "" && !validJobState(state) {
		writeError(w, http.StatusBadRequest, "bad_filter",
			"unknown state %q (want pending, running, done, failed, or cancelled)", state)
		return
	}
	var infos []campaignInfo
	for _, j := range s.jobs.List() {
		st := j.Status()
		if (state == "" || string(st.State) == state) && (kind == "" || st.Kind == kind) {
			infos = append(infos, s.campaignInfoOf(j))
		}
	}
	total := len(infos)
	infos = pageSlice(pg, infos)
	if infos == nil {
		infos = []campaignInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		surface(r) + "s": infos, "total": total,
		"limit": pg.limit, "offset": pg.offset,
	})
}

func validJobState(s string) bool {
	switch jobs.State(s) {
	case jobs.Pending, jobs.Running, jobs.Done, jobs.Failed, jobs.Cancelled:
		return true
	}
	return false
}

// getCampaign reports a campaign's state; ?wait=10s long-polls until it is
// terminal or the duration elapses, then answers with the current state
// either way.
func (s *Server) getCampaign(w http.ResponseWriter, r *http.Request) {
	j, ok := s.campaignJob(w, r)
	if !ok {
		return
	}
	if !s.maybeWait(w, r, s.jobs, j) {
		return
	}
	writeJSON(w, http.StatusOK, s.campaignInfoOf(j))
}

// cancelCampaign requests cancellation; cancelling a terminal campaign is a
// no-op. The response reports the state after the request took effect.
func (s *Server) cancelCampaign(w http.ResponseWriter, r *http.Request) {
	j, ok := s.campaignJob(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, s.campaignInfoOf(j))
}

// campaignResultJSON is the aggregated campaign summary served once a job
// is done: per-algorithm win totals, the per-cell table (as data and as the
// rendered text table), and the corner cases over the threshold.
type campaignResultJSON struct {
	// Header is the campaign identity the job ran under.
	Header campaign.Header `json:"header"`
	Algos  []string        `json:"algos"`
	Total  int             `json:"total"`
	Wins   map[string]int  `json:"wins"`
	Ties   int             `json:"ties"`
	Cells  []campaign.Cell `json:"cells"`
	// Merged names the job the summary belongs to.
	Merged      []string         `json:"merged"`
	CornerCases []cornerCaseJSON `json:"corner_cases"`
	Threshold   float64          `json:"threshold"`
	Table       string           `json:"table"`
}

type cornerCaseJSON struct {
	Cell      string  `json:"cell"`
	MaxSpread float64 `json:"max_spread"`
}

// campaignResult serves the merged full-factorial summary of a completed
// campaign. ?threshold= tunes the corner-case cut (default 1.2, the
// campaign command's default).
func (s *Server) campaignResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.campaignJob(w, r)
	if !ok {
		return
	}
	noun := surface(r)
	st := j.Status()
	switch st.State {
	case jobs.Done:
	case jobs.Failed:
		writeError(w, http.StatusInternalServerError, noun+"_failed", "%s %s failed: %s", noun, st.ID, st.Err)
		return
	default:
		writeError(w, http.StatusConflict, noun+"_not_terminal", "%s %s is %s", noun, st.ID, st.State)
		return
	}
	out, err := jobs.CampaignResult(j)
	if err != nil {
		writeError(w, http.StatusConflict, "result_unavailable", "%v", err)
		return
	}
	threshold := 1.2
	if raw := r.URL.Query().Get("threshold"); raw != "" {
		threshold, err = strconv.ParseFloat(raw, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_threshold", "bad threshold %q", raw)
			return
		}
	}

	full := out.Result
	wins, ties := full.Summary()
	res := campaignResultJSON{
		Header:    out.Header,
		Algos:     full.Algos,
		Total:     full.Total,
		Wins:      map[string]int{},
		Ties:      ties,
		Cells:     full.Cells,
		Merged:    []string{st.ID},
		Threshold: threshold,
	}
	for i, a := range full.Algos {
		res.Wins[a] = wins[i]
	}
	for _, c := range full.CornerCases(threshold) {
		res.CornerCases = append(res.CornerCases, cornerCaseJSON{Cell: c.Key(), MaxSpread: c.MaxSpread})
	}
	var table strings.Builder
	if err := full.WriteTable(&table); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	res.Table = table.String()
	writeJSON(w, http.StatusOK, res)
}

package api

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/events"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// shardEvent is the payload of topic "shard" events: the coordinator's
// per-shard progress snapshot plus the campaign job it belongs to.
type shardEvent struct {
	Campaign string `json:"campaign"`
	coord.ShardProgress
}

// Coordinated-campaign surface: POST /api/v1/campaigns queues one campaign's
// shards on the server's worker fleet (jedserve -join instances pulling
// from /api/v1/workers) through the coord subsystem, running as a job on
// the engine; GET exposes the aggregate per-shard/per-worker progress on
// top of the job state, and /result serves the merged full factorial once
// done.

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
// sharding.
type campaignRequest struct {
	jobs.CampaignSpec
	Shards      int `json:"shards,omitempty"`
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// campaignInfo is the wire state of one coordinated campaign: the job plus
// the coordinator's aggregate progress.
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

// createCampaign validates the request, builds a coordinator over the
// worker fleet, and runs it as a job on the engine; 202 with the poll URL.
func (s *Server) createCampaign(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	defer body.Close()
	var req campaignRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_spec", "bad campaign spec: %v", err)
		return
	}
	if s.fleet == nil {
		writeError(w, http.StatusServiceUnavailable, "no_workers",
			"no worker fleet configured (start the server with -fleet and its workers with -join)")
		return
	}
	c, err := coord.New(coord.Config{
		Fleet:       s.fleet,
		MinWorkers:  s.fleetMin,
		Spec:        req.CampaignSpec,
		Shards:      req.Shards,
		MaxAttempts: req.MaxAttempts,
		Metrics:     s.metrics,
		// The request's trace (minted or adopted by the obs middleware)
		// rides every shard lease, so one ID submitted on POST
		// /api/v1/campaigns shows up in each worker's log.
		Trace: obs.FromContext(r.Context()),
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_spec", "%v", err)
		return
	}
	header := c.Header()
	j := s.coordJobs.Submit(jobs.KindCoordinated, c.Cells(), func(ctx context.Context, j *jobs.Job) (any, error) {
		// The observers are installed here — before Run, on the job's own
		// goroutine — because the job handle does not exist at Submit time.
		c.SetOnCell(func(campaign.Cell) { j.Advance(1) })
		c.SetOnShard(func(sp coord.ShardProgress) {
			// Shard events are keyed by the campaign job, so one SSE filter
			// (?campaign=cN) follows the whole fan-out.
			s.bus.Publish(events.TopicShard, sp.State, j.ID(), shardEvent{Campaign: j.ID(), ShardProgress: sp})
		})
		if s.persist != nil {
			// Journal run progress under the job's ID: another coordinator
			// pointed at the same state directory can resume from it.
			c.SetPersist(s.persist, j.ID())
		}
		res, err := c.Run(ctx)
		if err != nil {
			return nil, err
		}
		return &jobs.CampaignOutcome{Header: header, Result: res}, nil
	})
	s.campaigns.put(j.ID(), c)
	s.campaigns.prune(s.coordJobs)
	w.Header().Set("Location", "/api/v1/campaigns/"+j.ID())
	writeJSON(w, http.StatusAccepted, s.campaignInfoOf(j))
}

// campaignJob resolves {id} to a coordinated-campaign job.
func (s *Server) campaignJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.coordJobs.Get(id)
	if !ok || j.Status().Kind != jobs.KindCoordinated {
		writeError(w, http.StatusNotFound, "campaign_not_found", "no campaign %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) listCampaigns(w http.ResponseWriter, _ *http.Request) {
	var infos []campaignInfo
	for _, j := range s.coordJobs.List() {
		if j.Status().Kind == jobs.KindCoordinated {
			infos = append(infos, s.campaignInfoOf(j))
		}
	}
	if infos == nil {
		infos = []campaignInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": infos})
}

// getCampaign reports the coordinated campaign's aggregate state; ?wait=
// long-polls like the job endpoint.
func (s *Server) getCampaign(w http.ResponseWriter, r *http.Request) {
	j, ok := s.campaignJob(w, r)
	if !ok {
		return
	}
	if !s.maybeWait(w, r, s.coordJobs, j) {
		return
	}
	writeJSON(w, http.StatusOK, s.campaignInfoOf(j))
}

func (s *Server) cancelCampaign(w http.ResponseWriter, r *http.Request) {
	j, ok := s.campaignJob(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, s.campaignInfoOf(j))
}

// campaignResult serves the merged full-factorial summary of a completed
// coordinated campaign — the same shape as a job result, with the whole
// campaign always present (no ?merge=: the coordinator already merged).
func (s *Server) campaignResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.campaignJob(w, r)
	if !ok {
		return
	}
	st := j.Status()
	switch st.State {
	case jobs.Done:
	case jobs.Failed:
		writeError(w, http.StatusInternalServerError, "campaign_failed", "campaign %s failed: %s", st.ID, st.Err)
		return
	default:
		writeError(w, http.StatusConflict, "campaign_not_terminal", "campaign %s is %s", st.ID, st.State)
		return
	}
	out, err := jobs.CampaignResult(j)
	if err != nil {
		writeError(w, http.StatusConflict, "result_unavailable", "%v", err)
		return
	}
	writeCampaignSummary(w, r, out.Header, out.Result, []string{st.ID})
}

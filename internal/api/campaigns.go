package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/events"
	"repro/internal/obs"
)

// Campaign surface: POST /api/v1/campaigns files one campaign in the
// server's campaign table (campaigntable.go) — a coord.Coordinator queueing
// the campaign's shards on the server's fleet (the in-process worker, or
// the jedserve -join workers of a -fleet server) and merging what comes
// back. GET polls (?wait= long-polls), DELETE cancels, and /result serves
// the merged summary once done. /api/v1/jobs is an alias of the same
// routes: an ID minted on either surface resolves on both, and only the
// nouns on the wire (error codes, the list key, the Location header)
// follow the path the client used.

// shardEvent is the payload of topic "shard" events: the coordinator's
// per-shard progress snapshot plus the campaign it belongs to.
type shardEvent struct {
	Campaign string `json:"campaign"`
	coord.ShardProgress
}

// campaignRequest is the body of POST /api/v1/campaigns: the campaign spec
// plus the fan-out knobs. Shard stays forbidden — the coordinator owns the
// sharding. It is also the persisted spec of the campaign's record, from
// which a restarted server resumes the campaign.
type campaignRequest struct {
	campaign.Spec
	Shards      int `json:"shards,omitempty"`
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// jobInfo is the JSON description of one campaign, also the payload of its
// job events.
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

func infoOfStatus(st campaignStatus) jobInfo {
	info := jobInfo{
		ID: st.ID, Kind: st.Kind, State: st.State,
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

// campaignInfo is the wire state of one campaign: its record plus the
// coordinator's aggregate progress.
type campaignInfo struct {
	jobInfo
	Coordination *coord.Progress `json:"coordination,omitempty"`
}

func (s *Server) campaignInfoOf(rec *campaignRecord) campaignInfo {
	st, p := s.campaigns.status(rec)
	return campaignInfo{jobInfo: infoOfStatus(st), Coordination: p}
}

// surface names the alias a request came in on: "job" or "campaign".
func surface(r *http.Request) string {
	if strings.HasPrefix(r.URL.Path, "/api/v1/jobs") {
		return "job"
	}
	return "campaign"
}

// newCampaign builds the coordinator of rec from its request. With
// persistence on, the run journals every merged cell under rec's ID, so a
// restarted server resumes it from the cells the run journal holds. The
// observers below run on Run's goroutine, after rec has its ID.
func (s *Server) newCampaign(rec *campaignRecord, req campaignRequest, trace *obs.Trace) error {
	cfg := coord.Config{
		Fleet:       s.campaignFleet(),
		MinWorkers:  s.fleetMin,
		Spec:        req.Spec,
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
			s.journalCell(rec.id, cell)
			return nil
		}
	}
	published := 0
	cfg.OnShard = func(sp coord.ShardProgress) {
		// One progress event per shard that adds cells, resumed ones too:
		// a per-cell event would push shard history out of the replay tail.
		if n := rec.c.Progress().CellsDone; n > published {
			published = n
			s.publishJob(rec, "progress")
		}
		// Shard events are keyed by the campaign, so one SSE filter
		// (?campaign=j3) follows the whole fan-out.
		s.bus.Publish(events.TopicShard, sp.State, rec.id, shardEvent{Campaign: rec.id, ShardProgress: sp})
	}
	c, err := coord.New(cfg)
	if err != nil {
		return err
	}
	rec.c, rec.st.Total = c, c.Cells()
	return nil
}

// runNS is the persistence namespace of the campaign run journals. Under
// each campaign's ID it holds the run's identity header ("<id>/header",
// written durably) and one best-effort record per merged cell
// ("<id>/c/%08d"), from which a restarted server resumes the run without
// computing those cells again. A campaign drops its journal when it
// reaches a terminal state.
const runNS = "runs"

// openRunJournal prepares the run journal of campaign id and returns
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

// journalCell records one merged cell of campaign id's run. Best-effort: a
// lost record only means computing the cell again after a crash, never a
// wrong result.
func (s *Server) journalCell(id string, cell campaign.Cell) {
	if b, err := json.Marshal(cell); err == nil {
		s.persist.Put(runNS, fmt.Sprintf("%s/c/%08d", id, cell.Index), b) //nolint:errcheck // best-effort, as above
	}
}

// dropRunJournals drops the run journal of every campaign that will not
// run again: one the table does not hold, or one that is terminal. Called
// after recovery, it catches the journals of campaigns restored as
// terminal or failed as interrupted, whose drop a crash cut off.
func (s *Server) dropRunJournals() error {
	records, err := s.persist.Load(runNS)
	if err != nil {
		return err
	}
	ended := map[string]bool{}
	for k := range records {
		id, _, _ := strings.Cut(k, "/")
		rec, ok := s.campaigns.get(id)
		if !ok {
			ended[id] = true
			continue
		}
		if st, _ := s.campaigns.status(rec); terminal(st.State) {
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

// createCampaign validates the request, builds its coordinator, and files
// it in the campaign table; 202 with the poll URL.
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
	spec, _ := json.Marshal(req) // plain strings and numbers: cannot fail
	rec := newRecord(campaignStatus{Kind: kindCampaign, State: statePending, Created: time.Now(), Spec: spec})
	if err := s.newCampaign(rec, req, obs.FromContext(r.Context())); err != nil {
		writeError(w, http.StatusBadRequest, "bad_spec", "%v", err)
		return
	}
	s.submitCampaign(rec)
	w.Header().Set("Location", r.URL.Path+"/"+rec.id)
	writeJSON(w, http.StatusAccepted, s.campaignInfoOf(rec))
}

// campaignRecordOf resolves {id} to a campaign.
func (s *Server) campaignRecordOf(w http.ResponseWriter, r *http.Request) (*campaignRecord, bool) {
	id := r.PathValue("id")
	rec, ok := s.campaigns.get(id)
	if !ok {
		noun := surface(r)
		writeError(w, http.StatusNotFound, noun+"_not_found", "no %s %q", noun, id)
		return nil, false
	}
	return rec, true
}

// listCampaigns lists the table in submission order (a stable order: IDs
// are minted monotonically). ?state= and ?kind= filter before pagination,
// so total counts the matches, not the whole table.
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
	for _, rec := range s.campaigns.list() {
		info := s.campaignInfoOf(rec)
		if (state == "" || info.State == state) && (kind == "" || info.Kind == kind) {
			infos = append(infos, info)
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
	switch s {
	case statePending, stateRunning, stateDone, stateFailed, stateCancelled:
		return true
	}
	return false
}

// getCampaign reports a campaign's state; ?wait=10s long-polls until it is
// terminal or the duration elapses, then answers with the current state
// either way.
func (s *Server) getCampaign(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.campaignRecordOf(w, r)
	if !ok {
		return
	}
	if !s.maybeWait(w, r, rec) {
		return
	}
	writeJSON(w, http.StatusOK, s.campaignInfoOf(rec))
}

// cancelCampaign requests cancellation; cancelling a terminal campaign is a
// no-op. The response reports the state after the request took effect.
func (s *Server) cancelCampaign(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.campaignRecordOf(w, r)
	if !ok {
		return
	}
	s.cancelRecord(rec)
	writeJSON(w, http.StatusOK, s.campaignInfoOf(rec))
}

// campaignResultJSON is the aggregated campaign summary served once a job
// is done: per-algorithm win totals, the per-cell table (as data and as the
// rendered text table), and the corner cases over the threshold.
type campaignResultJSON struct {
	// Header is the campaign identity the run used.
	Header campaign.Header `json:"header"`
	Algos  []string        `json:"algos"`
	Total  int             `json:"total"`
	Wins   map[string]int  `json:"wins"`
	Ties   int             `json:"ties"`
	Cells  []campaign.Cell `json:"cells"`
	// Merged names the campaign the summary belongs to.
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
	rec, ok := s.campaignRecordOf(w, r)
	if !ok {
		return
	}
	noun := surface(r)
	st, _ := s.campaigns.status(rec)
	switch st.State {
	case stateDone:
	case stateFailed:
		writeError(w, http.StatusInternalServerError, noun+"_failed", "%s %s failed: %s", noun, st.ID, st.Err)
		return
	default:
		writeError(w, http.StatusConflict, noun+"_not_terminal", "%s %s is %s", noun, st.ID, st.State)
		return
	}
	if st.Outcome == nil {
		writeError(w, http.StatusConflict, "result_unavailable", "%s %s carries no result", noun, st.ID)
		return
	}
	out := st.Outcome
	threshold := 1.2
	if raw := r.URL.Query().Get("threshold"); raw != "" {
		var err error
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

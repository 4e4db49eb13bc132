package jobs

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/persist"
)

// Journal receives the engine's durable-state events. The engine calls it
// outside its own locks; implementations must be safe for concurrent use.
type Journal interface {
	// JobSubmitted records a freshly queued job (best-effort write).
	JobSubmitted(j *Job)
	// JobFinished records a terminal transition (durable write — a finished
	// result must survive the very next crash).
	JobFinished(j *Job)
	// JobEvicted removes the record of a job dropped by the retention cap.
	JobEvicted(id string)
}

// jobRecord is the persisted form of one job (the engine's namespace,
// keyed by job ID).
type jobRecord struct {
	ID       string           `json:"id"`
	Kind     string           `json:"kind"`
	State    State            `json:"state"`
	Done     int              `json:"done"`
	Total    int              `json:"total"`
	Err      string           `json:"err,omitempty"`
	Created  time.Time        `json:"created"`
	Started  time.Time        `json:"started,omitzero"`
	Finished time.Time        `json:"finished,omitzero"`
	Spec     json.RawMessage  `json:"spec,omitempty"`
	Outcome  *CampaignOutcome `json:"outcome,omitempty"`
}

// Persister journals an engine's jobs into namespace ns of a persist.Store,
// one record per job ID. It journals no progress: a running job's work
// keeps its own checkpoint (campaigns: the API server's run journal).
// Writes are best-effort — a persistence failure is counted, never
// propagated into the job path.
type Persister struct {
	ps   persist.Store
	ns   string
	errs atomic.Int64

	// mu orders the writes and deletes of job records. A record reads
	// the job's status under it, so a submission record written after the
	// job finished carries the finished state instead of overwriting it.
	mu sync.Mutex
}

// NewPersister builds a journal writing into the given namespace.
func NewPersister(ps persist.Store, ns string) *Persister {
	return &Persister{ps: ps, ns: ns}
}

// Errors counts failed persistence writes.
func (p *Persister) Errors() int64 { return p.errs.Load() }

func (p *Persister) record(j *Job) jobRecord {
	st := j.Status()
	rec := jobRecord{
		ID: st.ID, Kind: st.Kind, State: st.State,
		Done: st.Done, Total: st.Total, Err: st.Err,
		Created: st.Created, Started: st.Started, Finished: st.Finished,
		Spec: j.Meta(),
	}
	if v, ok := j.Result(); ok {
		if out, ok := v.(*CampaignOutcome); ok {
			rec.Outcome = out
		}
	}
	return rec
}

func (p *Persister) write(rec jobRecord, durable bool) {
	b, err := json.Marshal(rec)
	if err != nil {
		p.errs.Add(1)
		return
	}
	if durable {
		err = p.ps.PutDurable(p.ns, rec.ID, b)
	} else {
		err = p.ps.Put(p.ns, rec.ID, b)
	}
	if err != nil {
		p.errs.Add(1)
	}
}

// journal writes the job's current record.
func (p *Persister) journal(j *Job, durable bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.write(p.record(j), durable)
}

// JobSubmitted implements Journal.
func (p *Persister) JobSubmitted(j *Job) { p.journal(j, false) }

// JobFinished implements Journal: the terminal record is durable.
func (p *Persister) JobFinished(j *Job) { p.journal(j, true) }

// JobEvicted implements Journal.
func (p *Persister) JobEvicted(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.ps.Delete(p.ns, id); err != nil {
		p.errs.Add(1)
	}
}

// Adopt moves the job records of namespace ns into p's namespace under
// their own IDs, relabelled as campaign jobs, and empties ns — how the
// records of a second engine an older server kept ("cjobs") join the one
// engine. Undecodable records are dropped and counted. Call before Recover.
func (p *Persister) Adopt(ns string) error {
	records, err := p.ps.Load(ns)
	if err != nil || len(records) == 0 {
		return err
	}
	for _, raw := range records {
		var rec jobRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.ID == "" {
			p.errs.Add(1)
			continue
		}
		rec.Kind = KindCampaign
		p.write(rec, true)
	}
	return p.ps.DeletePrefix(ns, "")
}

// RecoverStats summarizes what Recover restored, served on /api/v1/meta.
type RecoverStats struct {
	// Restored counts terminal jobs re-listed with their results intact.
	Restored int `json:"restored"`
	// Resumed counts interrupted jobs re-submitted under their own IDs.
	Resumed int `json:"resumed"`
	// Interrupted counts jobs that could not be resumed (no or undecodable
	// descriptor); they reappear as failed.
	Interrupted int `json:"interrupted"`
}

// Resumer rebuilds the work of an interrupted job from its ID and its
// persisted descriptor (Job.Meta); total is the job's progress extent.
type Resumer func(id string, meta []byte) (fn Fn, total int, err error)

// Recover replays the persisted job records of a previous process into the
// engine: terminal jobs are restored as-is (their results serve
// byte-identically), interrupted jobs are re-submitted under their own IDs
// with the work resume rebuilds, and everything else reappears as failed
// with an explanatory error. Call once, after SetJournal and before serving.
func (p *Persister) Recover(e *Engine, resume Resumer) (RecoverStats, error) {
	var stats RecoverStats
	records, err := p.ps.Load(p.ns)
	if err != nil {
		return stats, err
	}
	ids := make([]string, 0, len(records))
	for id := range records {
		ids = append(ids, id)
	}
	// Shorter-then-lexical sorts "j2" before "j10": submission order for
	// engine-minted IDs, which keeps the restored listing stable.
	sort.Slice(ids, func(a, b int) bool {
		if len(ids[a]) != len(ids[b]) {
			return len(ids[a]) < len(ids[b])
		}
		return ids[a] < ids[b]
	})
	for _, id := range ids {
		var rec jobRecord
		if err := json.Unmarshal(records[id], &rec); err != nil || rec.ID == "" {
			p.errs.Add(1)
			continue
		}
		switch {
		case rec.State.Terminal():
			var result any
			if rec.Outcome != nil {
				result = rec.Outcome
			}
			if _, err := e.RestoreTerminal(statusOf(rec), rec.Spec, result); err != nil {
				p.errs.Add(1)
				continue
			}
			stats.Restored++
		case len(rec.Spec) > 0 && p.resume(e, rec, resume):
			stats.Resumed++
		default:
			p.failInterrupted(e, rec, &stats)
		}
	}
	return stats, nil
}

// resume re-submits one interrupted job, reporting whether it could.
func (p *Persister) resume(e *Engine, rec jobRecord, resume Resumer) bool {
	fn, total, err := resume(rec.ID, rec.Spec)
	if err != nil {
		return false
	}
	_, err = e.Resubmit(rec.ID, rec.Kind, total, rec.Spec, fn)
	return err == nil
}

// failInterrupted restores a non-resumable interrupted job as failed and
// rewrites its record so the next restart agrees.
func (p *Persister) failInterrupted(e *Engine, rec jobRecord, stats *RecoverStats) {
	rec.State = Failed
	rec.Err = "interrupted by server restart"
	rec.Outcome = nil
	if rec.Finished.IsZero() {
		rec.Finished = time.Now()
	}
	if _, err := e.RestoreTerminal(statusOf(rec), rec.Spec, nil); err != nil {
		p.errs.Add(1)
		return
	}
	p.write(rec, true)
	stats.Interrupted++
}

func statusOf(rec jobRecord) Status {
	return Status{
		ID: rec.ID, Kind: rec.Kind, State: rec.State,
		Done: rec.Done, Total: rec.Total, Err: rec.Err,
		Created: rec.Created, Started: rec.Started, Finished: rec.Finished,
	}
}

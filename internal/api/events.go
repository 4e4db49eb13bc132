package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/events"
)

// GET /api/v1/events — the push half of the API. The response is a
// Server-Sent Events stream of the bus: one frame per event, `id:` carrying
// the bus-wide event ID (so a reconnecting client resumes with
// Last-Event-ID), `event:` carrying the topic, and `data:` the full event
// JSON. Filters:
//
//	topic=job,shard   only these topics (default: all)
//	job=j3            only job events about j3
//	campaign=j3       only job and shard events about j3
//
// Heartbeat comments (`: hb`) flow every few seconds so idle proxies keep
// the connection open; a subscriber too slow to drain its buffer loses the
// oldest events and is told with a `: dropped=N` comment. Replay after
// reconnect is best-effort from the in-memory tail; when the gap is longer
// than the tail, a `: replay-incomplete` comment warns the client to
// re-fetch current state.

// defaultEventHeartbeat paces the SSE keep-alive comments.
const defaultEventHeartbeat = 15 * time.Second

// SetEventHeartbeat overrides the SSE heartbeat interval (tests use
// milliseconds). Call before serving.
func (s *Server) SetEventHeartbeat(d time.Duration) {
	if d > 0 {
		s.heartbeat = d
	}
}

// parseEventFilter builds the bus filter from the query string; an unknown
// parameter is refused, so a misspelt filter does not stream every topic.
func parseEventFilter(r *http.Request) (events.Filter, error) {
	var f events.Filter
	q := r.URL.Query()
	for name := range q {
		if name != "topic" && name != "job" && name != "campaign" && name != "last_event_id" {
			return f, fmt.Errorf("unknown parameter %q (want topic, job, campaign or last_event_id)", name)
		}
	}
	if raw := q.Get("topic"); raw != "" {
		for _, t := range strings.Split(raw, ",") {
			topic := events.Topic(strings.TrimSpace(t))
			if topic == "" {
				continue
			}
			if !events.ValidTopic(topic) {
				return f, fmt.Errorf("unknown topic %q", topic)
			}
			f.Topics = append(f.Topics, topic)
		}
	}
	if id := q.Get("job"); id != "" {
		if f.Key == nil {
			f.Key = map[events.Topic]string{}
		}
		f.Key[events.TopicJob] = id
	}
	if id := q.Get("campaign"); id != "" {
		if f.Key == nil {
			f.Key = map[events.Topic]string{}
		}
		// Shard events are keyed by their campaign job, so one campaign=
		// filter follows both the job state and its shard fan-out.
		f.Key[events.TopicJob] = id
		f.Key[events.TopicShard] = id
	}
	return f, nil
}

// lastEventID extracts the replay cursor: the standard Last-Event-ID header
// of an EventSource reconnect, or ?last_event_id= for curl-shaped clients.
// ok distinguishes an explicit cursor of 0 ("replay everything retained")
// from no cursor at all (live stream only).
func lastEventID(r *http.Request) (after uint64, ok bool) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	if raw == "" {
		return 0, false
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func writeSSE(w http.ResponseWriter, e events.Event) {
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: ", e.ID, e.Topic)
	raw, err := marshalEvent(e)
	if err != nil {
		fmt.Fprintf(w, "{\"id\":%d}\n\n", e.ID)
		return
	}
	w.Write(raw) //nolint:errcheck // a dead client surfaces on the next flush
	fmt.Fprint(w, "\n\n")
}

// marshalEvent renders the event as a single JSON line (SSE data fields are
// line-framed; the envelope writeJSON indents, so it is not reused here).
func marshalEvent(e events.Event) ([]byte, error) {
	return json.Marshal(e)
}

func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal", "streaming unsupported")
		return
	}
	f, err := parseEventFilter(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_filter", "%v", err)
		return
	}
	// Subscribe before replaying so nothing published in between is lost;
	// the ID check below dedupes the overlap.
	sub := s.bus.Subscribe(f, 0)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass frames through
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, "retry: 3000\n: stream open\n\n")

	var last uint64
	if after, ok := lastEventID(r); ok {
		replay, complete := s.bus.ReplaySince(after, f)
		if !complete {
			fmt.Fprint(w, ": replay-incomplete\n\n")
		}
		for _, e := range replay {
			writeSSE(w, e)
			last = e.ID
		}
	}
	fl.Flush()

	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-hb.C:
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		case <-sub.Notify():
			evs, dropped := sub.Drain()
			if dropped > 0 {
				fmt.Fprintf(w, ": dropped=%d\n\n", dropped)
			}
			for _, e := range evs {
				if e.ID <= last {
					continue // already delivered by replay
				}
				writeSSE(w, e)
				last = e.ID
			}
			fl.Flush()
		}
	}
}

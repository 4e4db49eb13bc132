package api

import (
	"context"
	"net/http"
	"strconv"
	"time"
)

// The shared ?wait= long-poll and limit=/offset= pagination semantics of
// the v1 surface. Jobs and campaigns honor the same wait contract; the
// session and job collections honor the same page contract.

// maxJobWait caps the ?wait= long-poll so a stuck client cannot pin a
// handler goroutine forever.
const maxJobWait = time.Minute

// parseWait extracts the ?wait= duration. ok is false when the parameter is
// absent; a malformed or negative duration is an error.
func parseWait(r *http.Request) (d time.Duration, ok bool, err error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, false, nil
	}
	d, perr := time.ParseDuration(raw)
	if perr != nil || d < 0 {
		return 0, false, &badWaitError{raw}
	}
	if d > maxJobWait {
		d = maxJobWait
	}
	return d, true, nil
}

type badWaitError struct{ raw string }

func (e *badWaitError) Error() string { return "bad wait " + strconv.Quote(e.raw) }

// maybeWait is the one ?wait= long-poll implementation shared by the job
// and campaign endpoints: it blocks — on the record's finished channel, not
// a sleep loop — until the campaign is terminal and on record, the (capped)
// duration elapses, or the client disconnects (the request context is the
// wait context, so a gone client frees the handler immediately). It reports
// false after answering a malformed duration with a 400 bad_wait envelope.
func (s *Server) maybeWait(w http.ResponseWriter, r *http.Request, rec *campaignRecord) bool {
	d, ok, err := parseWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_wait",
			"%v (want a duration, e.g. 10s)", err)
		return false
	}
	if !ok {
		return true
	}
	s.mLongPolls.Inc()
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	select { // a timeout just means "answer with the current state"
	case <-rec.finished:
	case <-ctx.Done():
	}
	return true
}

// LongPolls counts the ?wait= long-polls this server answered — the polls
// an event-stream consumer no longer issues. Served on /api/v1/meta.
func (s *Server) LongPolls() int64 { return s.mLongPolls.Value() }

// page is a parsed limit=/offset= pair. limit 0 (the default) means "no
// limit"; offset past the end yields an empty window with total intact.
type page struct {
	limit, offset int
}

// parsePage reads limit= and offset=, answering 400 bad_pagination (and
// reporting ok=false) on non-integer or negative values.
func parsePage(w http.ResponseWriter, r *http.Request) (page, bool) {
	var pg page
	q := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *int
	}{{"limit", &pg.limit}, {"offset", &pg.offset}} {
		raw := q.Get(p.name)
		if raw == "" {
			continue
		}
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad_pagination",
				"bad %s %q (want a non-negative integer)", p.name, raw)
			return page{}, false
		}
		*p.dst = n
	}
	return pg, true
}

// pageSlice applies the window to items.
func pageSlice[T any](pg page, items []T) []T {
	if pg.offset >= len(items) {
		return nil
	}
	items = items[pg.offset:]
	if pg.limit > 0 && pg.limit < len(items) {
		items = items[:pg.limit]
	}
	return items
}

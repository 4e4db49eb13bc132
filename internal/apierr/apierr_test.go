package apierr

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

func TestWriteRoundTrips(t *testing.T) {
	rec := httptest.NewRecorder()
	Write(rec, 404, "session_not_found", "no session %q", "s9")

	if rec.Code != 404 {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	e, ok := Decode(rec.Body.Bytes())
	if !ok {
		t.Fatalf("Decode failed on own output: %s", rec.Body.String())
	}
	if e.Code != "session_not_found" || e.Message != `no session "s9"` || e.Detail != "" {
		t.Fatalf("round-trip = %+v", e)
	}
}

func TestWriteDetail(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteDetail(rec, 409, "campaign_header_mismatch", "replicates 2 != 4", "spec disagrees")
	e, ok := Decode(rec.Body.Bytes())
	if !ok || e.Code != "campaign_header_mismatch" || e.Detail != "replicates 2 != 4" {
		t.Fatalf("decoded = %+v (ok=%v)", e, ok)
	}
	// The wire shape nests under one "error" key.
	var wire map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil || len(wire) != 1 || wire["error"] == nil {
		t.Fatalf("wire shape = %s", rec.Body.String())
	}
}

func TestDecode(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		want E
		ok   bool
	}{
		{"structured", `{"error":{"code":"rate_limited","message":"slow down","detail":"1 rps"}}`,
			E{Code: "rate_limited", Message: "slow down", Detail: "1 rps"}, true},
		{"structured no detail", `{"error":{"code":"bad_wait","message":"bad duration"}}`,
			E{Code: "bad_wait", Message: "bad duration"}, true},
		{"legacy flat string", `{"error":"job j9 not found"}`, E{}, false},
		{"empty object", `{"error":{}}`, E{}, false},
		{"empty string", `{"error":""}`, E{}, false},
		{"no error key", `{"status":"ok"}`, E{}, false},
		{"not json", `<html>502 Bad Gateway</html>`, E{}, false},
		{"null error", `{"error":null}`, E{}, false},
	}
	for _, tc := range cases {
		e, ok := Decode([]byte(tc.raw))
		if ok != tc.ok || e != tc.want {
			t.Errorf("%s: Decode = %+v, %v; want %+v, %v", tc.name, e, ok, tc.want, tc.ok)
		}
	}
}

// Package apierr is the one JSON error envelope of the HTTP surface. Every
// non-2xx API response carries
//
//	{"error": {"code": "...", "message": "...", "detail": "..."}}
//
// where code is a stable machine-readable string (session_not_found,
// rate_limited, campaign_header_mismatch, ...), message is human-readable,
// and detail is optional context. Writers across internal/api and
// internal/fleet all go through Write, so the contract cannot drift
// between subsystems; clients go through Decode.
package apierr

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// E is the decoded error envelope.
type E struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
}

// envelope is the wire shape: the error object under one "error" key.
type envelope struct {
	Error E `json:"error"`
}

// Write answers the request with the JSON error envelope. code is the
// machine-readable error code; the formatted message is for humans.
func Write(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteDetail(w, status, code, "", format, args...)
}

// WriteDetail is Write with the optional detail field set.
func WriteDetail(w http.ResponseWriter, status int, code, detail, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(envelope{Error: E{ //nolint:errcheck // headers already sent
		Code:    code,
		Message: fmt.Sprintf(format, args...),
		Detail:  detail,
	}})
}

// Decode extracts the error envelope from a response body. ok reports
// whether a non-empty envelope was present.
func Decode(raw []byte) (e E, ok bool) {
	var env envelope
	if json.Unmarshal(raw, &env) != nil || (env.Error.Code == "" && env.Error.Message == "") {
		return E{}, false
	}
	return env.Error, true
}

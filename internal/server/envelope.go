package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	mstsearch "mstsearch"
	"mstsearch/internal/index"
	"mstsearch/internal/storage"
)

// Every non-2xx response the server emits is an ErrorEnvelope — one
// documented JSON shape, one machine-readable code per failure class, an
// explicit retryable verdict — so clients never have to parse prose to
// decide what to do next. The codes form the HTTP projection of the
// library's typed error taxonomy (ErrBadQuery, ErrDeadlineExceeded,
// ErrCanceled, ErrPageCorrupt, ErrInjected, …) plus the serving layer's
// own overload outcomes.

// ErrorEnvelope is the uniform error response body.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the typed error payload.
type ErrorBody struct {
	// Code is the machine-readable failure class (see the Code* constants).
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// Retryable reports whether retrying the same request can succeed.
	Retryable bool `json:"retryable"`
	// RetryAfterMS, when nonzero, is the server's backoff hint — the same
	// value the Retry-After header carries, in milliseconds.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// The error codes of the serving layer. Clients switch on these; the
// set only grows.
const (
	// CodeBadRequest: malformed JSON, invalid window/interval/k, a query
	// trajectory not covering its period. Not retryable.
	CodeBadRequest = "bad_request"
	// CodeNotFound: an unknown trajectory id. Not retryable.
	CodeNotFound = "not_found"
	// CodeConflict: a duplicate trajectory id on ingest. Not retryable
	// (use an Idempotency-Key to make retries safe).
	CodeConflict = "conflict"
	// CodeRateLimited: the tenant's token bucket is empty. Retryable
	// after the Retry-After hint.
	CodeRateLimited = "rate_limited"
	// CodeOverloaded: the global concurrency limiter's wait queue is
	// full, or the wait timed out — the server is shedding load.
	// Retryable after the Retry-After hint.
	CodeOverloaded = "overloaded"
	// CodeDeadlineExceeded: the request's deadline expired mid-query.
	// Retryable (ideally with a looser deadline).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeCanceled: the client went away mid-query. Reported for
	// completeness; the client rarely sees it.
	CodeCanceled = "canceled"
	// CodeCorrupt: an index page failed checksum verification. Not
	// retryable until an operator runs recovery.
	CodeCorrupt = "corrupt"
	// CodeUnavailable: a transient storage fault surfaced. Retryable.
	CodeUnavailable = "unavailable"
	// CodeNotDurable: a durability operation (checkpoint) on a DB not
	// opened with OpenDurable. Not retryable.
	CodeNotDurable = "not_durable"
	// CodeInternal: anything not in the taxonomy — a bug to report.
	CodeInternal = "internal"
)

// StatusClientClosedRequest is the (nginx-convention) status for a
// request aborted because its client disconnected; no standard code
// exists and the client is gone, but the access log should still tell
// load-shed apart from walk-away.
const StatusClientClosedRequest = 499

// envelopeFor maps an error from the query/mutation path onto its HTTP
// status and typed body. The deadline check runs before the cancel check:
// ErrDeadlineExceeded wraps ErrCanceled, so the order is what splits
// "timed out" from "client went away".
func envelopeFor(err error) (int, ErrorBody) {
	switch {
	case errors.Is(err, mstsearch.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, ErrorBody{
			Code: CodeDeadlineExceeded, Message: err.Error(), Retryable: true,
		}
	case errors.Is(err, mstsearch.ErrCanceled) || errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, ErrorBody{
			Code: CodeCanceled, Message: err.Error(), Retryable: false,
		}
	case errors.Is(err, mstsearch.ErrDuplicateID):
		return http.StatusConflict, ErrorBody{
			Code: CodeConflict, Message: err.Error(), Retryable: false,
		}
	case errors.Is(err, mstsearch.ErrNotDurable):
		return http.StatusBadRequest, ErrorBody{
			Code: CodeNotDurable, Message: err.Error(), Retryable: false,
		}
	case errors.Is(err, mstsearch.ErrBadQuery) || errors.Is(err, mstsearch.ErrBadWindow) ||
		errors.Is(err, mstsearch.ErrUnknownMetric):
		return http.StatusBadRequest, ErrorBody{
			Code: CodeBadRequest, Message: err.Error(), Retryable: false,
		}
	case errors.Is(err, mstsearch.ErrPageCorrupt{}):
		return http.StatusInternalServerError, ErrorBody{
			Code: CodeCorrupt, Message: err.Error(), Retryable: false,
		}
	case errors.Is(err, mstsearch.ErrInjected):
		return http.StatusServiceUnavailable, ErrorBody{
			Code: CodeUnavailable, Message: err.Error(), Retryable: true,
			RetryAfterMS: 50,
		}
	case errors.Is(err, mstsearch.ErrUnavailable):
		// Every replica of some shard is quarantined, or a quorum write
		// could not gather enough acks. Anti-entropy repair re-admits
		// replicas in the background, so a retry after a beat can win.
		return http.StatusServiceUnavailable, ErrorBody{
			Code: CodeUnavailable, Message: err.Error(), Retryable: true,
			RetryAfterMS: 250,
		}
	case errors.Is(err, mstsearch.ErrWALCorrupt) || errors.Is(err, mstsearch.ErrBadSnapshot) ||
		errors.Is(err, mstsearch.ErrSnapshotCRC) || errors.Is(err, mstsearch.ErrSnapshotVersion) ||
		errors.Is(err, mstsearch.ErrSnapshotKind) || errors.Is(err, mstsearch.ErrUnknownIndexKind) ||
		errors.Is(err, index.ErrCorruptNode):
		// Durable-state damage discovered on open, replay or traversal:
		// like a checksum failure, nothing a client retry can fix.
		return http.StatusInternalServerError, ErrorBody{
			Code: CodeCorrupt, Message: err.Error(), Retryable: false,
		}
	case errors.Is(err, storage.ErrPageOutOfRange) || errors.Is(err, storage.ErrBadPageSize) ||
		errors.Is(err, storage.ErrFileFull):
		// Pager misuse or exhaustion escaping the library is a bug in the
		// serving path, not a client problem.
		return http.StatusInternalServerError, ErrorBody{
			Code: CodeInternal, Message: err.Error(), Retryable: false,
		}
	case errors.As(err, new(*notFoundError)):
		return http.StatusNotFound, ErrorBody{
			Code: CodeNotFound, Message: err.Error(), Retryable: false,
		}
	case errors.As(err, new(*badRequestError)):
		return http.StatusBadRequest, ErrorBody{
			Code: CodeBadRequest, Message: err.Error(), Retryable: false,
		}
	default:
		return http.StatusInternalServerError, ErrorBody{
			Code: CodeInternal, Message: err.Error(), Retryable: false,
		}
	}
}

// badRequestError marks a request the handler rejected before touching
// the DB (malformed JSON, missing fields).
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// badRequestf builds a typed bad-request error.
func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// notFoundError marks a reference to a trajectory the store does not
// hold.
type notFoundError struct{ msg string }

func (e *notFoundError) Error() string { return e.msg }

// notFoundf builds a typed not-found error.
func notFoundf(format string, args ...any) error {
	return &notFoundError{msg: fmt.Sprintf(format, args...)}
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past WriteHeader are connection failures the
	// client observes directly; nothing useful remains to do here.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the typed envelope for err, setting Retry-After when
// the body carries a backoff hint.
func writeError(w http.ResponseWriter, err error) (status int, body ErrorBody) {
	status, body = envelopeFor(err)
	writeShaped(w, status, body)
	return status, body
}

// writeShaped writes an explicit (status, body) pair — the path the
// admission layer uses for its load-shed envelopes.
func writeShaped(w http.ResponseWriter, status int, body ErrorBody) {
	if body.RetryAfterMS > 0 {
		// Retry-After is whole seconds; round up so the hint is never
		// shorter than the body's millisecond value.
		secs := (body.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, ErrorEnvelope{Error: body})
}

// retryAfterMS renders a duration as a milliseconds hint, at least 1.
func retryAfterMS(d time.Duration) int64 {
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

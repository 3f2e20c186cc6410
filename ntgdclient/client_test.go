package ntgdclient

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"ntgd/ntgdapi"
	"sync/atomic"
	"testing"
	"time"
)

// shedServer answers n refusals with the given status and retry hint
// before succeeding with a fixed solve body.
func shedServer(t *testing.T, refusals *atomic.Int64, status int, retryAfterMS int64) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if refusals.Add(-1) >= 0 {
			if retryAfterMS > 0 {
				w.Header().Set("Retry-After", "1")
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"error": "shed", "class": "admission", "retry_after_ms": retryAfterMS,
			})
			return
		}
		_ = json.NewEncoder(w).Encode(ntgdapi.SolveResponse{Models: []string{"p"}, Count: 1})
	}))
}

// instantClock returns a clock option that records sleeps without
// sleeping, plus the recorded slice, with jitter pinned to j.
func instantClock(j float64) (Option, *[]time.Duration) {
	var slept []time.Duration
	return withClock(func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}, func() float64 { return j }), &slept
}

// TestRetryPolicyByStatus is the contract table: which statuses the
// client retries, and which it must return on first sight.
func TestRetryPolicyByStatus(t *testing.T) {
	cases := []struct {
		status    int
		class     string
		retryable bool
	}{
		{http.StatusTooManyRequests, "admission", true},
		{http.StatusServiceUnavailable, "overloaded", true},
		{http.StatusGatewayTimeout, "timeout", true},
		{http.StatusBadRequest, "bad_request", false},
		{http.StatusNotFound, "not_found", false},
		{http.StatusRequestEntityTooLarge, "request_too_large", false},
		{http.StatusUnprocessableEntity, "budget", false},
		{http.StatusInternalServerError, "internal", false},
		{http.StatusInsufficientStorage, "memory", false},
	}
	for _, tc := range cases {
		t.Run(tc.class, func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(tc.status)
				_ = json.NewEncoder(w).Encode(map[string]any{"error": "x", "class": tc.class})
			}))
			defer srv.Close()
			clock, _ := instantClock(0.5)
			c := New(srv.URL, clock, WithRetryPolicy(RetryPolicy{MaxAttempts: 3}))
			_, err := c.Solve(context.Background(), ntgdapi.Request{Program: "p :- not q."})
			ae, ok := AsAPIError(err)
			if !ok {
				t.Fatalf("err = %v, want *APIError", err)
			}
			if ae.Status != tc.status || ae.Class != tc.class {
				t.Fatalf("got %d/%s, want %d/%s", ae.Status, ae.Class, tc.status, tc.class)
			}
			if ae.Retryable() != tc.retryable {
				t.Fatalf("Retryable() = %v, want %v", ae.Retryable(), tc.retryable)
			}
			wantCalls := int64(1)
			if tc.retryable {
				wantCalls = 3
			}
			if calls.Load() != wantCalls {
				t.Fatalf("server saw %d calls, want %d", calls.Load(), wantCalls)
			}
			if ae.Attempts != int(wantCalls) {
				t.Fatalf("Attempts = %d, want %d", ae.Attempts, wantCalls)
			}
		})
	}
}

func TestRetrySucceedsAfterShed(t *testing.T) {
	var refusals atomic.Int64
	refusals.Store(2)
	srv := shedServer(t, &refusals, http.StatusTooManyRequests, 250)
	defer srv.Close()
	clock, slept := instantClock(0) // jitter 0: sleep is exactly the hint
	c := New(srv.URL, clock)
	res, err := c.Solve(context.Background(), ntgdapi.Request{Program: "p :- not q."})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Count != 1 || res.Models[0] != "p" {
		t.Fatalf("unexpected response %+v", res)
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
	for i, d := range *slept {
		if d != 250*time.Millisecond {
			t.Fatalf("sleep %d = %v, want the 250ms retry_after_ms hint (jitter pinned to 0)", i, d)
		}
	}
}

// TestRetryAfterHeaderFallback drops the body hint so the client must
// read the coarser Retry-After header.
func TestRetryAfterHeaderFallback(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"error": "draining", "class": "draining"})
	}))
	defer srv.Close()
	clock, slept := instantClock(0)
	c := New(srv.URL, clock, WithRetryPolicy(RetryPolicy{MaxAttempts: 2, Budget: -1}))
	_, err := c.Solve(context.Background(), ntgdapi.Request{Program: "p :- not q."})
	if ae, ok := AsAPIError(err); !ok || ae.RetryAfter != 2*time.Second {
		t.Fatalf("err = %v, want APIError with 2s RetryAfter from the header", err)
	}
	if len(*slept) != 1 || (*slept)[0] != 2*time.Second {
		t.Fatalf("slept %v, want one 2s sleep honoring the header", *slept)
	}
}

// TestBackoffJitterAndCap pins the backoff shape: full jitter over an
// exponentially doubling ceiling, capped at MaxBackoff, floored by the
// server hint.
func TestBackoffJitterAndCap(t *testing.T) {
	c := New("http://unused", WithRetryPolicy(RetryPolicy{
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  300 * time.Millisecond,
	}), withClock(nil, func() float64 { return 1 }))
	for _, tc := range []struct {
		attempt int
		hint    time.Duration
		want    time.Duration
	}{
		{1, 0, 100 * time.Millisecond},                      // base
		{2, 0, 200 * time.Millisecond},                      // doubled
		{3, 0, 300 * time.Millisecond},                      // capped (would be 400)
		{9, 0, 300 * time.Millisecond},                      // still capped far out
		{1, 150 * time.Millisecond, 150 * time.Millisecond}, // hint floors
	} {
		if got := c.backoff(tc.attempt, tc.hint); got != tc.want {
			t.Fatalf("backoff(%d, %v) = %v, want %v", tc.attempt, tc.hint, got, tc.want)
		}
	}
	// Jitter is uniform in [0, ceiling]: with jitter 0 and no hint the
	// sleep is 0 (retry immediately is a legal draw).
	c2 := New("http://unused", withClock(nil, func() float64 { return 0 }))
	if got := c2.backoff(1, 0); got != 0 {
		t.Fatalf("zero-jitter backoff = %v, want 0", got)
	}
}

// TestRetryBudget stops retrying once the next sleep would cross the
// per-call budget, even with attempts remaining.
func TestRetryBudget(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"error": "shed", "class": "admission", "retry_after_ms": int64(3600000),
		})
	}))
	defer srv.Close()
	clock, slept := instantClock(1)
	c := New(srv.URL, clock, WithRetryPolicy(RetryPolicy{MaxAttempts: 10, Budget: time.Second}))
	_, err := c.Solve(context.Background(), ntgdapi.Request{Program: "p :- not q."})
	ae, ok := AsAPIError(err)
	if !ok || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want the 429", err)
	}
	// The hour-long hint can never fit the 1s budget: exactly one
	// attempt, zero sleeps.
	if calls.Load() != 1 || len(*slept) != 0 {
		t.Fatalf("calls=%d sleeps=%d, want 1 and 0 (budget exhausted)", calls.Load(), len(*slept))
	}
}

// TestNoRetryAfterCallerDeadline pins that an expired caller context
// short-circuits the loop rather than burning attempts on guaranteed
// failures.
func TestNoRetryAfterCallerDeadline(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusGatewayTimeout)
		_ = json.NewEncoder(w).Encode(map[string]any{"error": "deadline", "class": "timeout"})
	}))
	defer srv.Close()
	clock, _ := instantClock(0)
	c := New(srv.URL, clock, WithRetryPolicy(RetryPolicy{MaxAttempts: 5, Budget: -1}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Solve(ctx, ntgdapi.Request{Program: "p :- not q."})
	if err == nil {
		t.Fatal("want an error")
	}
	if calls.Load() > 1 {
		t.Fatalf("server saw %d calls after the caller's context ended, want at most 1", calls.Load())
	}
}

func TestTransportErrorsRetryThenSurface(t *testing.T) {
	// A closed server: every attempt is a connection error.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close()
	clock, slept := instantClock(0.5)
	c := New(srv.URL, clock, WithRetryPolicy(RetryPolicy{MaxAttempts: 3, Budget: -1}))
	_, err := c.Solve(context.Background(), ntgdapi.Request{Program: "p :- not q."})
	ae, ok := AsAPIError(err)
	if !ok || ae.Status != 0 {
		t.Fatalf("err = %v, want a status-0 transport APIError", err)
	}
	if !ae.Retryable() || ae.Attempts != 3 || len(*slept) != 2 {
		t.Fatalf("attempts=%d sleeps=%d retryable=%v, want 3/2/true", ae.Attempts, len(*slept), ae.Retryable())
	}
}

func TestEndpointsRoundTrip(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ntgdapi.Request
		_ = json.NewDecoder(r.Body).Decode(&req)
		switch r.URL.Path {
		case "/v1/entails":
			_ = json.NewEncoder(w).Encode(ntgdapi.EntailsResponse{Entailed: true, Witness: "p"})
		case "/v1/answers":
			_ = json.NewEncoder(w).Encode(ntgdapi.AnswersResponse{Tuples: [][]string{{"a"}}, Complete: true})
		case "/v1/consistent":
			_ = json.NewEncoder(w).Encode(ntgdapi.ConsistentResponse{Consistent: true})
		case "/v1/db":
			if req.Facts == "" {
				t.Error("db upload lost the facts field")
			}
			_ = json.NewEncoder(w).Encode(ntgdapi.DBResponse{Handle: "h", Facts: 2})
		case "/v1/batch":
			_ = json.NewEncoder(w).Encode(ntgdapi.BatchResponse{Results: make([]ntgdapi.BatchResult, len(req.Queries))})
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
	}))
	defer srv.Close()
	c := New(srv.URL)
	ctx := context.Background()
	if res, err := c.Entails(ctx, ntgdapi.Request{Program: "p.", Query: "?- p."}); err != nil || !res.Entailed {
		t.Fatalf("Entails = %+v, %v", res, err)
	}
	if res, err := c.Answers(ctx, ntgdapi.Request{Program: "p(a).", Query: "?-[X] p(X)."}); err != nil || len(res.Tuples) != 1 {
		t.Fatalf("Answers = %+v, %v", res, err)
	}
	if res, err := c.Consistent(ctx, ntgdapi.Request{Program: "p."}); err != nil || !res.Consistent {
		t.Fatalf("Consistent = %+v, %v", res, err)
	}
	if res, err := c.UploadDB(ctx, "p(a). p(b)."); err != nil || res.Handle != "h" {
		t.Fatalf("UploadDB = %+v, %v", res, err)
	}
	if res, err := c.Batch(ctx, ntgdapi.Request{Program: "p.", Queries: []ntgdapi.BatchItem{{Query: "?- p."}, {Query: "?- q."}}}); err != nil || len(res.Results) != 2 {
		t.Fatalf("Batch = %+v, %v", res, err)
	}
}

func TestAPIErrorUnwrapsTransportCause(t *testing.T) {
	sentinel := errors.New("boom")
	ae := &APIError{Message: "boom", cause: sentinel}
	if !errors.Is(ae, sentinel) {
		t.Fatal("APIError must unwrap to its transport cause")
	}
}

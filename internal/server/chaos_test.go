//go:build failpoint

package server

import (
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"ntgd/internal/failpoint"
	"ntgd/ntgdapi"
)

// awaitGoroutines waits for the goroutine count to settle back to the
// baseline (httptest keeps a few connection goroutines alive briefly,
// so a small slack and a deadline are both needed).
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosServerHandler pins satellite #2: a request that panics in
// the handler layer (the server/handler failpoint) answers
// 500/internal, leaks no goroutines, and the daemon keeps serving —
// the next identical request succeeds.
func TestChaosServerHandler(t *testing.T) {
	defer failpoint.Reset()
	_, hs := newTestServer(t, Config{})
	req := Request{Program: subsetSrc}

	// Warm the path (and the program cache) before measuring.
	var warm SolveResponse
	if code := post(t, hs.URL, "/v1/solve", req, &warm); code != http.StatusOK {
		t.Fatalf("warmup solve: %d", code)
	}
	baseline := runtime.NumGoroutine()

	failpoint.Arm(failpoint.ServerHandler, 1)
	var errRes ErrorResponse
	if code := post(t, hs.URL, "/v1/solve", req, &errRes); code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", code)
	}
	if errRes.Class != ntgdapi.ClassInternal {
		t.Fatalf("class = %q, want internal", errRes.Class)
	}
	if failpoint.Fired(failpoint.ServerHandler) != 1 {
		t.Fatal("server/handler failpoint did not fire")
	}
	failpoint.Disarm(failpoint.ServerHandler)

	// The daemon survived: same request, full answer.
	var ok SolveResponse
	if code := post(t, hs.URL, "/v1/solve", req, &ok); code != http.StatusOK || ok.Count != warm.Count {
		t.Fatalf("post-fault solve = (%d, %d models), want (200, %d)", code, ok.Count, warm.Count)
	}
	awaitGoroutines(t, baseline)
}

// TestChaosServerShed pins the PR 10 shed-path boundary: a fault while
// writing a refusal — the moment the daemon is already overloaded —
// still answers a typed 500/internal, leaks nothing, and the daemon
// recovers to shedding correctly (with retry guidance) and then to
// full service.
func TestChaosServerShed(t *testing.T) {
	defer failpoint.Reset()
	srv, hs := newTestServer(t, Config{MaxConcurrentRuns: 1, MaxQueuedRuns: -1})
	req := Request{Program: subsetSrc, Query: "?- in(i0).", Mode: "brave", TimeoutMS: 10_000}

	var warm EntailsResponse
	if code := post(t, hs.URL, "/v1/entails", req, &warm); code != http.StatusOK {
		t.Fatalf("warmup entails: %d", code)
	}
	baseline := runtime.NumGoroutine()

	// Hold the only slot so every request takes the shed path.
	if err := srv.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	failpoint.Arm(failpoint.ServerShed, 1)
	resp, errRes := postFull(t, hs.URL, "/v1/entails", req)
	if resp.StatusCode != http.StatusInternalServerError || errRes.Class != ntgdapi.ClassInternal {
		t.Fatalf("faulted shed = %d/%q, want 500/internal", resp.StatusCode, errRes.Class)
	}
	if failpoint.Fired(failpoint.ServerShed) != 1 {
		t.Fatal("server/shed failpoint did not fire")
	}
	failpoint.Disarm(failpoint.ServerShed)

	// Disarmed but still overloaded: the shed path works again, with
	// the full retry-guidance contract.
	resp, errRes = postFull(t, hs.URL, "/v1/entails", req)
	if resp.StatusCode != http.StatusTooManyRequests || errRes.Class != ntgdapi.ClassAdmission {
		t.Fatalf("post-fault shed = %d/%q, want 429/admission", resp.StatusCode, errRes.Class)
	}
	requireRetryGuidance(t, resp, errRes)

	srv.gate.Release()
	var ok EntailsResponse
	if code := post(t, hs.URL, "/v1/entails", req, &ok); code != http.StatusOK || !ok.Entailed {
		t.Fatalf("post-release entails = (%d, %v), want (200, true)", code, ok.Entailed)
	}
	awaitGoroutines(t, baseline)
}

// TestChaosEngineFaultOverHTTP drives an engine-level failpoint
// (core/sink, firing inside the model sink) through the HTTP surface:
// the Solver's own guard types the panic, the handler maps it to
// 500/internal with the partial stats, and the daemon keeps serving.
func TestChaosEngineFaultOverHTTP(t *testing.T) {
	defer failpoint.Reset()
	_, hs := newTestServer(t, Config{})
	req := Request{Program: subsetSrc}
	var warm SolveResponse
	if code := post(t, hs.URL, "/v1/solve", req, &warm); code != http.StatusOK {
		t.Fatalf("warmup solve: %d", code)
	}
	baseline := runtime.NumGoroutine()

	failpoint.Arm(failpoint.CoreSink, 1)
	var errRes ErrorResponse
	if code := post(t, hs.URL, "/v1/solve", req, &errRes); code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", code)
	}
	if errRes.Class != ntgdapi.ClassInternal {
		t.Fatalf("class = %q, want internal", errRes.Class)
	}
	failpoint.Disarm(failpoint.CoreSink)

	var ok SolveResponse
	if code := post(t, hs.URL, "/v1/solve", req, &ok); code != http.StatusOK || ok.Count != warm.Count {
		t.Fatalf("post-fault solve = (%d, %d models), want (200, %d)", code, ok.Count, warm.Count)
	}
	awaitGoroutines(t, baseline)
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntgd"
	"ntgd/ntgdapi"
)

// postFull is post returning the whole *http.Response (closed) plus the
// decoded error body, for tests that assert on headers.
func postFull(t *testing.T, base, path string, req Request) (*http.Response, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var errRes ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&errRes)
	return resp, errRes
}

// requireRetryGuidance asserts the refusal contract every 429/503 must
// honor: a positive integer Retry-After header and a positive
// retry_after_ms in the body, consistent with each other (the header is
// the body rounded up to whole seconds).
func requireRetryGuidance(t *testing.T, resp *http.Response, errRes ErrorResponse) {
	t.Helper()
	h := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After header = %q, want an integer >= 1", h)
	}
	if errRes.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", errRes.RetryAfterMS)
	}
	if want := (errRes.RetryAfterMS + 999) / 1000; int64(secs) != want {
		t.Fatalf("Retry-After %ds does not round up retry_after_ms %dms", secs, errRes.RetryAfterMS)
	}
}

func getStatz(t *testing.T, base string) Statz {
	t.Helper()
	resp, err := http.Get(base + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stz Statz
	if err := json.NewDecoder(resp.Body).Decode(&stz); err != nil {
		t.Fatal(err)
	}
	return stz
}

// settleGoroutines waits for the goroutine count to return to baseline
// (httptest keeps connection goroutines alive briefly).
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerQueueFullShed pins immediate shedding: with the queue
// disabled and the only slot held, a request with a generous deadline
// is refused at once — not parked until the deadline — with full retry
// guidance, and the refusal shows up in /statz by reason.
func TestServerQueueFullShed(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxConcurrentRuns: 1, MaxQueuedRuns: -1})
	if err := srv.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, errRes := postFull(t, hs.URL, "/v1/entails", Request{
		Program: subsetSrc, Query: "?- in(i0).", Mode: "brave", TimeoutMS: 10_000,
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("refusal took %v; a full queue must shed immediately, not park", elapsed)
	}
	if resp.StatusCode != http.StatusTooManyRequests || errRes.Class != ntgdapi.ClassAdmission {
		t.Fatalf("got %d/%q, want 429/admission", resp.StatusCode, errRes.Class)
	}
	requireRetryGuidance(t, resp, errRes)
	stz := getStatz(t, hs.URL)
	if stz.Gate.ShedQueueFull != 1 {
		t.Fatalf("gate.shed_queue_full = %d, want 1", stz.Gate.ShedQueueFull)
	}
	if stz.Gate.QueueBound != 0 {
		t.Fatalf("gate.queue_bound = %d, want 0 (no queue)", stz.Gate.QueueBound)
	}

	srv.gate.Release()
	var ok EntailsResponse
	if code := post(t, hs.URL, "/v1/entails", Request{
		Program: subsetSrc, Query: "?- in(i0).", Mode: "brave",
	}, &ok); code != http.StatusOK || !ok.Entailed {
		t.Fatalf("post-release entails = (%d, %v), want (200, true)", code, ok.Entailed)
	}
}

// TestServerDeadlineHopelessShed seeds the gate's EWMA so the estimated
// wait provably exceeds a short request deadline: the request must be
// refused immediately with the estimate as its retry hint, counted
// under the deadline-hopeless reason.
func TestServerDeadlineHopelessShed(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxConcurrentRuns: 1, MaxQueuedRuns: 8})
	// One synthetic 30s run seeds the EWMA, then the slot is held so
	// the next request would have to queue behind it.
	if err := srv.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.gate.ReleaseTimed(30 * time.Second)
	if err := srv.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.gate.Release()

	resp, errRes := postFull(t, hs.URL, "/v1/entails", Request{
		Program: subsetSrc, Query: "?- in(i0).", Mode: "brave", TimeoutMS: 200,
	})
	if resp.StatusCode != http.StatusTooManyRequests || errRes.Class != ntgdapi.ClassAdmission {
		t.Fatalf("got %d/%q, want 429/admission", resp.StatusCode, errRes.Class)
	}
	requireRetryGuidance(t, resp, errRes)
	if errRes.RetryAfterMS < 10_000 {
		t.Fatalf("retry_after_ms = %d, want the ~30s EWMA-based estimate", errRes.RetryAfterMS)
	}
	stz := getStatz(t, hs.URL)
	if stz.Gate.ShedDeadline != 1 {
		t.Fatalf("gate.shed_deadline_hopeless = %d, want 1", stz.Gate.ShedDeadline)
	}
	if stz.Gate.EWMARunTimeMS < 1000 {
		t.Fatalf("gate.ewma_run_time_ms = %v, want the seeded estimate surfaced", stz.Gate.EWMARunTimeMS)
	}
}

// TestServerRequestTooLarge pins satellite #2: a body past MaxBodyBytes
// answers 413 with its own class (not a generic 400), no retry
// guidance, and the class is counted in /statz.
func TestServerRequestTooLarge(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxBodyBytes: 256})
	resp, errRes := postFull(t, hs.URL, "/v1/solve", Request{
		Program: "p(" + strings.Repeat("a", 4096) + ").",
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if errRes.Class != ntgdapi.ClassRequestTooLarge {
		t.Fatalf("class = %q, want %q", errRes.Class, ntgdapi.ClassRequestTooLarge)
	}
	if h := resp.Header.Get("Retry-After"); h != "" {
		t.Fatalf("413 carries Retry-After %q; a too-large body is deterministic and must not invite retries", h)
	}
	if !strings.Contains(errRes.Error, "256") {
		t.Fatalf("error %q does not name the limit", errRes.Error)
	}
	if stz := getStatz(t, hs.URL); stz.Errors[ntgdapi.ClassRequestTooLarge] != 1 {
		t.Fatalf("errors[request_too_large] = %d, want 1", stz.Errors[ntgdapi.ClassRequestTooLarge])
	}
}

// TestServerDrainRetryGuidance extends the drain contract: the
// 503/draining refusal now carries retry guidance too.
func TestServerDrainRetryGuidance(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	srv.StartDrain()
	resp, errRes := postFull(t, hs.URL, "/v1/solve", Request{Program: subsetSrc})
	if resp.StatusCode != http.StatusServiceUnavailable || errRes.Class != ntgdapi.ClassDraining {
		t.Fatalf("got %d/%q, want 503/draining", resp.StatusCode, errRes.Class)
	}
	requireRetryGuidance(t, resp, errRes)
}

// TestServerOverloadSoak is the PR 10 acceptance soak: a 64-request
// burst against one slot and a 4-deep queue with short deadlines. The
// daemon must stay bounded (the sampled waiter count never exceeds the
// queue bound), refuse with full retry guidance, keep its shed counters
// consistent with the refusals clients saw, leak nothing, and be
// healthy afterward. Run it under -race to make the claim mean
// something.
func TestServerOverloadSoak(t *testing.T) {
	cfg := Config{
		MaxConcurrentRuns: 1,
		MaxQueuedRuns:     4,
		Options:           ntgd.Options{Workers: 1},
	}
	srv, hs := newTestServer(t, cfg)
	// Warm the compile so the burst measures admission, not compilation.
	var warm ConsistentResponse
	if code := post(t, hs.URL, "/v1/consistent", Request{Program: bigSubsetSrc(), TimeoutMS: 30_000}, &warm); code != http.StatusOK {
		t.Fatalf("warmup: %d", code)
	}
	baseline := runtime.NumGoroutine()

	// Sample the gate during the burst: waiters must never exceed the
	// bound.
	stopSampling := make(chan struct{})
	var sampleViolations atomic.Int64
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			st := srv.gate.Snapshot()
			if st.QueueBound >= 0 && st.Waiters > st.QueueBound {
				sampleViolations.Add(1)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	const burst = 64
	var (
		mu       sync.Mutex
		byStatus = map[int]int64{}
	)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, errRes := postFull(t, hs.URL, "/v1/entails", Request{
				Program: bigSubsetSrc(), Query: "?- item(i0).", Mode: "cautious", TimeoutMS: 250,
			})
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				if errRes.Class != ntgdapi.ClassAdmission {
					t.Errorf("429 class = %q, want admission", errRes.Class)
				}
				requireRetryGuidance(t, resp, errRes)
			case http.StatusGatewayTimeout:
				// Admitted but the deadline expired mid-run: legal.
			default:
				t.Errorf("unexpected status %d (class %q)", resp.StatusCode, errRes.Class)
			}
			mu.Lock()
			byStatus[resp.StatusCode]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(stopSampling)
	samplerDone.Wait()

	if sampleViolations.Load() > 0 {
		t.Fatalf("sampled waiters above the queue bound %d times", sampleViolations.Load())
	}
	refused := byStatus[http.StatusTooManyRequests]
	if refused == 0 {
		t.Fatal("a 64-burst against 1 slot and a 4-deep queue shed nothing")
	}
	st := srv.gate.Snapshot()
	if got := st.ShedQueueFull + st.ShedDeadline + st.ShedExpired; got != refused {
		t.Fatalf("gate shed counters sum to %d, but clients saw %d refusals", got, refused)
	}
	stz := getStatz(t, hs.URL)
	if stz.Errors[ntgdapi.ClassAdmission] != refused {
		t.Fatalf("errors[admission] = %d, want %d", stz.Errors[ntgdapi.ClassAdmission], refused)
	}
	if stz.InFlight != 0 {
		t.Fatalf("in_flight = %d after the burst, want 0", stz.InFlight)
	}

	// Healthy afterward: liveness and a real answer.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the burst: %d, want 200", resp.StatusCode)
	}
	var ok EntailsResponse
	if code := post(t, hs.URL, "/v1/entails", Request{
		Program: subsetSrc, Query: "?- in(i0).", Mode: "brave", TimeoutMS: 30_000,
	}, &ok); code != http.StatusOK || !ok.Entailed {
		t.Fatalf("post-burst entails = (%d, %v), want (200, true)", code, ok.Entailed)
	}
	settleGoroutines(t, baseline)
}

// TestServerBrownout drives the memory-pressure state machine through
// every transition with injected samples: soft evicts both caches and
// halves the queue bound, hard refuses new work with 503/overloaded
// plus retry guidance while /healthz stays alive, and recovery restores
// the configured bound and full service.
func TestServerBrownout(t *testing.T) {
	const soft, hard = 1 << 20, 4 << 20
	srv, hs := newTestServer(t, Config{
		MaxConcurrentRuns: 2,
		MaxQueuedRuns:     8,
		MemSoftBytes:      soft,
		MemHardBytes:      hard,
	})

	// Fill both caches.
	var db DBResponse
	if code := post(t, hs.URL, "/v1/db", Request{Facts: "p(a). p(b)."}, &db); code != http.StatusOK {
		t.Fatalf("db upload: %d", code)
	}
	var solve SolveResponse
	if code := post(t, hs.URL, "/v1/solve", Request{Program: subsetSrc}, &solve); code != http.StatusOK {
		t.Fatalf("solve: %d", code)
	}

	if lvl := srv.ObserveMemory(soft / 2); lvl != PressureNormal {
		t.Fatalf("below-watermark sample → %v, want normal", lvl)
	}
	if b := srv.gate.QueueBound(); b != 8 {
		t.Fatalf("queue bound = %d before pressure, want 8", b)
	}

	// Soft: caches purged, bound halved, service continues.
	if lvl := srv.ObserveMemory(soft + 1); lvl != PressureSoft {
		t.Fatalf("soft sample → %v, want soft", lvl)
	}
	stz := getStatz(t, hs.URL)
	if stz.Pressure != "soft" {
		t.Fatalf("statz pressure = %q, want soft", stz.Pressure)
	}
	if stz.Cache.Entries != 0 || stz.DBCache.Entries != 0 {
		t.Fatalf("caches hold %d/%d entries under soft pressure, want 0/0",
			stz.Cache.Entries, stz.DBCache.Entries)
	}
	if b := srv.gate.QueueBound(); b != 4 {
		t.Fatalf("queue bound = %d under soft pressure, want 4 (halved)", b)
	}
	if stz.Engine.Nodes == 0 {
		t.Fatal("purge lost the retired engine stats")
	}
	var ok SolveResponse
	if code := post(t, hs.URL, "/v1/solve", Request{Program: subsetSrc}, &ok); code != http.StatusOK {
		t.Fatalf("solve under soft pressure: %d, want 200 (brownout, not blackout)", code)
	}
	// The evicted db handle is gone — the documented re-upload contract.
	var errRes ErrorResponse
	if code := post(t, hs.URL, "/v1/solve", Request{Program: subsetSrc, DB: db.Handle}, &errRes); code != http.StatusNotFound {
		t.Fatalf("evicted handle: %d, want 404", code)
	}

	// Hard: new API work refused, liveness stays.
	if lvl := srv.ObserveMemory(hard + 1); lvl != PressureHard {
		t.Fatalf("hard sample → %v, want hard", lvl)
	}
	resp, errRes2 := postFull(t, hs.URL, "/v1/solve", Request{Program: subsetSrc})
	if resp.StatusCode != http.StatusServiceUnavailable || errRes2.Class != ntgdapi.ClassOverloaded {
		t.Fatalf("got %d/%q under hard pressure, want 503/overloaded", resp.StatusCode, errRes2.Class)
	}
	requireRetryGuidance(t, resp, errRes2)
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under hard pressure: %d, want 200 (alive, shedding)", hresp.StatusCode)
	}

	// Recovery: configured bound and full service restored.
	if lvl := srv.ObserveMemory(soft / 2); lvl != PressureNormal {
		t.Fatalf("recovery sample → %v, want normal", lvl)
	}
	if b := srv.gate.QueueBound(); b != 8 {
		t.Fatalf("queue bound = %d after recovery, want 8", b)
	}
	if code := post(t, hs.URL, "/v1/solve", Request{Program: subsetSrc}, &ok); code != http.StatusOK {
		t.Fatalf("solve after recovery: %d, want 200", code)
	}
	if stz := getStatz(t, hs.URL); stz.Pressure != "normal" {
		t.Fatalf("statz pressure = %q after recovery, want normal", stz.Pressure)
	}
}

// TestServerMemoryWatchdog drives the production sampling loop with an
// injected sampler: flipping the sampled value must move the daemon
// through soft pressure and back without any real heap growth.
func TestServerMemoryWatchdog(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		MaxConcurrentRuns: 1,
		MaxQueuedRuns:     4,
		MemSoftBytes:      1000,
		MemHardBytes:      2000,
	})
	var live atomic.Uint64
	live.Store(100)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.MemoryWatchdog(ctx, time.Millisecond, live.Load)
	}()

	awaitPressure := func(want PressureLevel) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for srv.Pressure() != want {
			if time.Now().After(deadline) {
				t.Fatalf("pressure stuck at %v, want %v", srv.Pressure(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	live.Store(1500)
	awaitPressure(PressureSoft)
	live.Store(2500)
	awaitPressure(PressureHard)
	live.Store(100)
	awaitPressure(PressureNormal)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not stop with its context")
	}

	// No watermarks → the watchdog is a no-op that returns immediately.
	srv2 := New(Config{})
	nctx, ncancel := context.WithCancel(context.Background())
	ncancel()
	fin := make(chan struct{})
	go func() {
		srv2.MemoryWatchdog(nctx, time.Millisecond, func() uint64 { return 1 << 40 })
		close(fin)
	}()
	select {
	case <-fin:
	case <-time.After(time.Second):
		t.Fatal("watermark-free watchdog did not return")
	}
	if srv2.Pressure() != PressureNormal {
		t.Fatal("watermark-free server left normal pressure")
	}
}

package ntgdclient_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"ntgd"
	"ntgd/internal/server"
	"ntgd/ntgdapi"
	"ntgd/ntgdclient"
)

// The tests in this file drive the real client against the real daemon
// (server.New behind httptest), so the one wire contract in ntgdapi is
// pinned from encode to decode rather than against a hand-written fake.

const subset3 = `item(i0). item(i1). item(i2).
item(X), not out(X) -> in(X).
item(X), not in(X) -> out(X).
`

// subsetOf spans 2^n models.
func subsetOf(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "item(i%d).\n", i)
	}
	b.WriteString("item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n")
	return b.String()
}

// daemon boots an in-process ntgdd with cfg and returns its URL and a
// client that never retries, so every refusal surfaces on first sight.
func daemon(t *testing.T, cfg server.Config) (string, *ntgdclient.Client) {
	t.Helper()
	cfg.Options.Workers = 1
	hs := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(hs.Close)
	return hs.URL, ntgdclient.New(hs.URL, ntgdclient.WithRetryPolicy(ntgdclient.RetryPolicy{MaxAttempts: 1}))
}

func requireEffort(t *testing.T, what string, st ntgdapi.Stats) {
	t.Helper()
	if st.Nodes == 0 || st.ModelsEmitted == 0 {
		t.Fatalf("%s: stats %+v, want non-zero nodes and models_emitted", what, st)
	}
}

func TestClientAgainstDaemonEndpoints(t *testing.T) {
	_, c := daemon(t, server.Config{})
	ctx := context.Background()

	solve, err := c.Solve(ctx, ntgdapi.Request{Program: subset3})
	if err != nil {
		t.Fatal(err)
	}
	if solve.Count != 8 || len(solve.Models) != 8 || solve.Exhausted {
		t.Fatalf("solve: count %d, %d models, exhausted %v; want 8, 8, false", solve.Count, len(solve.Models), solve.Exhausted)
	}
	requireEffort(t, "solve", solve.Stats)
	if solve.Stats.ModelsEmitted != 8 {
		t.Fatalf("solve: models_emitted %d, want 8", solve.Stats.ModelsEmitted)
	}

	ent, err := c.Entails(ctx, ntgdapi.Request{Program: subset3, Query: "?- in(i0).", Mode: "brave"})
	if err != nil {
		t.Fatal(err)
	}
	if !ent.Entailed || ent.NoModels || !strings.Contains(ent.Witness, "in(i0)") {
		t.Fatalf("entails: %+v, want entailed with an in(i0) witness", ent)
	}
	requireEffort(t, "entails", ent.Stats)

	ans, err := c.Answers(ctx, ntgdapi.Request{Program: subset3, Query: "?-[X] item(X)."})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(ans.Tuples))
	for i, tup := range ans.Tuples {
		got[i] = strings.Join(tup, ",")
	}
	slices.Sort(got)
	if !ans.Complete || !slices.Equal(got, []string{"i0", "i1", "i2"}) {
		t.Fatalf("answers: %+v, want the three items, complete", ans)
	}
	requireEffort(t, "answers", ans.Stats)

	cons, err := c.Consistent(ctx, ntgdapi.Request{Program: subset3})
	if err != nil || !cons.Consistent {
		t.Fatalf("consistent: %+v, %v", cons, err)
	}

	batch, err := c.Batch(ctx, ntgdapi.Request{Program: subset3, Queries: []ntgdapi.BatchItem{
		{Query: "?- in(i0).", Mode: "brave"},
		{Query: "?-[X] item(X)."},
		{Query: "?- in(i0"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("batch: %d results, want 3", len(batch.Results))
	}
	if r := batch.Results[0]; !r.Entailed || r.Error != "" {
		t.Fatalf("batch item 0: %+v, want entailed", r)
	}
	if r := batch.Results[1]; len(r.Tuples) != 3 || !r.Complete {
		t.Fatalf("batch item 1: %+v, want three tuples", r)
	}
	if r := batch.Results[2]; r.Class != ntgdapi.ClassBadRequest || r.Error == "" {
		t.Fatalf("batch item 2: %+v, want a bad_request item error", r)
	}
	requireEffort(t, "batch", batch.Stats)
	if sum := batch.Results[0].Stats.Nodes + batch.Results[1].Stats.Nodes; batch.Stats.Nodes != sum {
		t.Fatalf("batch: nodes %d, want the items' sum %d", batch.Stats.Nodes, sum)
	}

	db, err := c.UploadDB(ctx, "item(i0). item(i1). item(i0).")
	if err != nil {
		t.Fatal(err)
	}
	if db.Handle == "" || db.Facts != 2 {
		t.Fatalf("db: %+v, want a handle over 2 distinct facts", db)
	}
	rules := "item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n"
	onDB, err := c.Solve(ctx, ntgdapi.Request{Program: rules, DB: db.Handle})
	if err != nil {
		t.Fatal(err)
	}
	if onDB.Count != 4 {
		t.Fatalf("solve over the uploaded db: %d models, want 4", onDB.Count)
	}
	requireEffort(t, "solve over db", onDB.Stats)
}

// TestClientAgainstDaemonWireKeys pins the JSON keys of every success
// body exactly as the daemon writes them.
func TestClientAgainstDaemonWireKeys(t *testing.T) {
	url, _ := daemon(t, server.Config{})
	stats := []string{"branches", "completed", "conflicts", "deterministic", "models_emitted", "nodes", "stability_checks", "stability_failed"}
	cases := []struct {
		path string
		req  ntgdapi.Request
		keys []string
	}{
		{"/v1/solve", ntgdapi.Request{Program: subset3}, []string{"count", "exhausted", "models", "stats"}},
		{"/v1/entails", ntgdapi.Request{Program: subset3, Query: "?- in(i0).", Mode: "brave"}, []string{"entailed", "exhausted", "no_models", "stats", "witness"}},
		{"/v1/answers", ntgdapi.Request{Program: subset3, Query: "?-[X] item(X)."}, []string{"complete", "stats", "tuples"}},
		{"/v1/consistent", ntgdapi.Request{Program: subset3}, []string{"consistent"}},
		{"/v1/batch", ntgdapi.Request{Program: subset3, Queries: []ntgdapi.BatchItem{{Query: "?- in(i0)."}}}, []string{"results", "stats"}},
		{"/v1/db", ntgdapi.Request{Facts: "item(i0)."}, []string{"facts", "handle"}},
		{"/v1/solve", ntgdapi.Request{Program: "p("}, []string{"class", "error", "exhausted", "stats"}},
	}
	for _, tc := range cases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+tc.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&raw)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if got := slices.Sorted(maps.Keys(raw)); !slices.Equal(got, tc.keys) {
			t.Errorf("%s (%d): keys %v, want %v", tc.path, resp.StatusCode, got, tc.keys)
		}
		if st, ok := raw["stats"]; ok {
			var m map[string]int64
			if err := json.Unmarshal(st, &m); err != nil {
				t.Fatalf("%s: stats: %v", tc.path, err)
			}
			if got := slices.Sorted(maps.Keys(m)); !slices.Equal(got, stats) {
				t.Errorf("%s: stats keys %v, want %v", tc.path, got, stats)
			}
		}
	}
}

// requireAPIError asserts err is the daemon refusal the table expects,
// carried through the client as *APIError.
func requireAPIError(t *testing.T, err error, status int, class string) *ntgdclient.APIError {
	t.Helper()
	ae, ok := ntgdclient.AsAPIError(err)
	if !ok {
		t.Fatalf("err = %v, want *APIError %d/%s", err, status, class)
	}
	if ae.Status != status || ae.Class != class || ae.Message == "" || ae.Attempts != 1 {
		t.Fatalf("APIError = %+v, want status %d, class %q, a message, 1 attempt", ae, status, class)
	}
	retryable := status == http.StatusTooManyRequests
	if ae.Retryable() != retryable || (ae.RetryAfter > 0) != retryable {
		t.Fatalf("%d: retryable %v, retry after %v", status, ae.Retryable(), ae.RetryAfter)
	}
	return ae
}

func TestClientAgainstDaemonErrors(t *testing.T) {
	ctx := context.Background()

	t.Run("400 bad_request", func(t *testing.T) {
		_, c := daemon(t, server.Config{})
		_, err := c.Solve(ctx, ntgdapi.Request{Program: "p("})
		if ae := requireAPIError(t, err, http.StatusBadRequest, ntgdapi.ClassBadRequest); ae.Stats != (ntgdapi.Stats{}) {
			t.Fatalf("stats %+v, want zero before the engine ran", ae.Stats)
		}
	})

	t.Run("404 not_found", func(t *testing.T) {
		_, c := daemon(t, server.Config{})
		_, err := c.Solve(ctx, ntgdapi.Request{Program: "p.", DB: strings.Repeat("0", 64)})
		requireAPIError(t, err, http.StatusNotFound, ntgdapi.ClassNotFound)
	})

	t.Run("413 request_too_large", func(t *testing.T) {
		_, c := daemon(t, server.Config{MaxBodyBytes: 256})
		_, err := c.Solve(ctx, ntgdapi.Request{Program: subsetOf(64)})
		requireAPIError(t, err, http.StatusRequestEntityTooLarge, ntgdapi.ClassRequestTooLarge)
	})

	t.Run("422 budget", func(t *testing.T) {
		_, c := daemon(t, server.Config{Options: ntgd.Options{MaxNodes: 20}})
		_, err := c.Solve(ctx, ntgdapi.Request{Program: subsetOf(8)})
		ae := requireAPIError(t, err, http.StatusUnprocessableEntity, ntgdapi.ClassBudget)
		if ae.Stats.Nodes == 0 || !ae.Exhausted {
			t.Fatalf("budget refusal: stats %+v, exhausted %v; want partial effort, exhausted", ae.Stats, ae.Exhausted)
		}
	})

	t.Run("429 admission", func(t *testing.T) {
		url, c := daemon(t, server.Config{MaxConcurrentRuns: 1, MaxQueuedRuns: -1})
		// Hold the only slot with a cautious query that must visit all
		// 2^24 models, then cancel it once the refusal is observed.
		holdCtx, release := context.WithCancel(ctx)
		held := make(chan error, 1)
		go func() {
			_, err := c.Entails(holdCtx, ntgdapi.Request{Program: subsetOf(24), Query: "?- item(i0).", TimeoutMS: 30_000})
			held <- err
		}()
		defer func() {
			release()
			if err := <-held; err == nil {
				t.Error("the held run finished; it should have been cancelled")
			}
		}()
		waitInFlight(t, url)
		_, err := c.Solve(ctx, ntgdapi.Request{Program: subset3})
		if ae := requireAPIError(t, err, http.StatusTooManyRequests, ntgdapi.ClassAdmission); ae.Stats != (ntgdapi.Stats{}) {
			t.Fatalf("stats %+v, want zero for a refused admission", ae.Stats)
		}
	})
}

// waitInFlight polls /statz until the gate's one slot is taken.
func waitInFlight(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/statz")
		if err != nil {
			t.Fatal(err)
		}
		var stz server.Statz
		err = json.NewDecoder(resp.Body).Decode(&stz)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stz.Gate.InFlight == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(errors.New("the holding run never took the gate slot"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Ntgdclient: the overload-aware Go client end to end — start an
// in-process daemon with one engine slot and no waiting queue, fill
// the slot, and watch the client turn the daemon's 429 + Retry-After
// refusals into a transparent retry that eventually succeeds. Against
// a standalone daemon the same client is just:
//
//	c := ntgdclient.New("http://127.0.0.1:8377")
//	res, err := c.Solve(ctx, ntgdapi.Request{Program: "..."})
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"ntgd/internal/server"
	"ntgd/ntgdapi"
	"ntgd/ntgdclient"
)

const program = `item(i0). item(i1). item(i2).
item(X), not out(X) -> in(X).
item(X), not in(X) -> out(X).
`

func main() {
	// A deliberately tiny daemon: one engine slot, queue disabled —
	// any request arriving while the slot is busy is shed immediately
	// with 429 and retry guidance instead of parking.
	srv := server.New(server.Config{MaxConcurrentRuns: 1, MaxQueuedRuns: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // torn down with the process
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("daemon: %s (1 slot, no queue)\n\n", base)

	ctx := context.Background()

	// 1. A plain call: client and daemon agree on the wire types.
	c := ntgdclient.New(base)
	solve, err := c.Solve(ctx, ntgdapi.Request{Program: program})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solve: %d models, e.g. %s\n\n", solve.Count, solve.Models[0])

	// 2. Overload. A request that enumerates 2^16 models can never
	//    finish inside its 800ms deadline, so it occupies the only
	//    slot until the deadline expires...
	big := ""
	for i := 0; i < 16; i++ {
		big += fmt.Sprintf("item(i%d).\n", i)
	}
	big += "item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n"
	slow := make(chan error, 1)
	go func() {
		// One attempt: a hopeless request should not be retried into
		// the daemon over and over.
		c := ntgdclient.New(base, ntgdclient.WithRetryPolicy(ntgdclient.RetryPolicy{MaxAttempts: 1}))
		_, err := c.Entails(ctx, ntgdapi.Request{
			Program: big, Query: "?- item(i0).", Mode: "cautious", TimeoutMS: 800,
		})
		slow <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the slow request take the slot

	// ...so a one-attempt client is refused on the spot:
	once := ntgdclient.New(base, ntgdclient.WithRetryPolicy(ntgdclient.RetryPolicy{MaxAttempts: 1}))
	_, err = once.Entails(ctx, ntgdapi.Request{Program: program, Query: "?- in(i0).", Mode: "brave"})
	if ae, ok := ntgdclient.AsAPIError(err); ok {
		fmt.Printf("no retries: %d/%s, server says retry in %s\n",
			ae.Status, ae.Class, ae.RetryAfter)
	} else {
		log.Fatalf("expected a 429 refusal, got %v", err)
	}

	// 3. The default client retries 429/503/504 with capped
	//    exponential backoff and full jitter, sleeping at least the
	//    server's hint — so the same call simply succeeds once the
	//    slot frees. 400/404/413/422/500/507 are never retried.
	retrying := ntgdclient.New(base, ntgdclient.WithRetryPolicy(ntgdclient.RetryPolicy{
		MaxAttempts: 6,
		BaseBackoff: 200 * time.Millisecond,
		Budget:      10 * time.Second,
	}))
	ent, err := retrying.Entails(ctx, ntgdapi.Request{Program: program, Query: "?- in(i0).", Mode: "brave"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with retries: entailed=%v (the client waited the slot out)\n", ent.Entailed)
	if err := <-slow; err != nil {
		fmt.Printf("slow request finished with: %v\n", err)
	}
}

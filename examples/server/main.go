// Server: the ntgdd daemon end to end — start an in-process server
// (the exact handler stack `go run ./cmd/ntgdd` serves), POST a
// program with queries over HTTP, and watch the compiled-program cache
// at work. Every request is also printed as the equivalent curl
// command against a standalone daemon, so this doubles as the HTTP API
// quickstart:
//
//	go run ./cmd/ntgdd -addr 127.0.0.1:8377 &
//	curl -s http://127.0.0.1:8377/v1/solve -d '{"program":"..."}'
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	"ntgd/internal/server"
	"ntgd/ntgdapi"
)

const program = `item(i0). item(i1). item(i2).
item(X), not out(X) -> in(X).
item(X), not in(X) -> out(X).
`

func main() {
	// An in-process daemon: server.New + net/http is everything
	// cmd/ntgdd does, minus flags and signal handling.
	srv := server.New(server.Config{MaxConcurrentRuns: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // torn down with the process
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("daemon: %s\n\n", base)

	// 1. Enumerate the stable models (2^3 subset choices).
	var solve ntgdapi.SolveResponse
	post(base, "/v1/solve", ntgdapi.Request{Program: program}, &solve)
	fmt.Printf("solve: %d models, e.g. %s\n\n", solve.Count, solve.Models[0])

	// 2. Boolean queries under both reasoning modes. The program is
	//    already cached: these requests skip compilation entirely.
	var brave, cautious ntgdapi.EntailsResponse
	post(base, "/v1/entails", ntgdapi.Request{Program: program, Query: "?- in(i0).", Mode: "brave"}, &brave)
	post(base, "/v1/entails", ntgdapi.Request{Program: program, Query: "?- in(i0).", Mode: "cautious"}, &cautious)
	fmt.Printf("in(i0): brave=%v cautious=%v (some models include i0, others exclude it)\n\n",
		brave.Entailed, cautious.Entailed)

	// 3. A batch: many queries against one compiled program, one
	//    round trip.
	var batch ntgdapi.BatchResponse
	post(base, "/v1/batch", ntgdapi.Request{
		Program: program,
		Queries: []ntgdapi.BatchItem{
			{Query: "?- in(i0), in(i1), in(i2).", Mode: "brave"},
			{Query: "?-[X] item(X).", Mode: "cautious"},
		},
	}, &batch)
	fmt.Printf("batch: all-in bravely entailed=%v, certain items=%d\n\n",
		batch.Results[0].Entailed, len(batch.Results[1].Tuples))

	// 4. The cache did its job: one compile served everything above.
	resp, err := http.Get(base + "/statz")
	if err != nil {
		log.Fatal(err)
	}
	var stz server.Statz
	if err := json.NewDecoder(resp.Body).Decode(&stz); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("statz: compiles=%d hits=%d (curl -s %s/statz)\n",
		stz.Cache.Compiles, stz.Cache.Hits, base)
}

// post sends one request, decodes the response, and prints the
// equivalent curl invocation.
func post(base, path string, req ntgdapi.Request, out any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep "->" readable in the printed curl
	if err := enc.Encode(req); err != nil {
		log.Fatal(err)
	}
	body := bytes.TrimSpace(buf.Bytes())
	fmt.Printf("curl -s %s%s -d '%s'\n", base, path, strings.ReplaceAll(string(body), "'", `'\''`))
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ntgdapi.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("POST %s: %d %s (%s)", path, resp.StatusCode, e.Error, e.Class)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

// Command ntgdbench drives query traffic against an ntgdd daemon and
// reports latency percentiles and throughput, following the
// experiment-runner discipline of the BENCH_*.json trajectory: a
// reproducible grid (experiments.json) with warmup and repeats, one
// machine-readable JSON line per (experiment, concurrency) point, and
// a human summary on stderr.
//
//	ntgdbench                         # embedded default grid, in-process server
//	ntgdbench -grid grid.json         # custom grid
//	ntgdbench -addr 127.0.0.1:8377    # drive an already-running daemon
//
// With no -addr the bench starts an in-process daemon (same handler
// stack as cmd/ntgdd) on a loopback port, so a single command measures
// the full HTTP serving path. Each JSON line has the shape
//
//	{"name":"SrvSolveSubset/c=4","ns_op":<p50 latency>,
//	 "p50_ns":...,"p95_ns":...,"p99_ns":...,
//	 "rps":...,"models_per_sec":...,
//	 "models":...,"nodes":...,"workers":<concurrency>,
//	 "requests":...,"errors":...}
//
// ns_op is the p50 request latency so the lines aggregate alongside
// the smsbench experiment lines in BENCH_*.json; "workers" records the
// client concurrency of the point.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ntgd"
	"ntgd/internal/server"
	"ntgd/ntgdapi"
)

//go:embed experiments.json
var defaultGrid []byte

type gridFile struct {
	Experiments []experiment `json:"experiments"`
}

type experiment struct {
	Name        string              `json:"name"`
	Kind        string              `json:"kind"` // solve | entails | answers | consistent | batch
	Program     string              `json:"program,omitempty"`
	ProgramFile string              `json:"program_file,omitempty"`
	Semantics   string              `json:"semantics,omitempty"`
	Query       string              `json:"query,omitempty"`
	Mode        string              `json:"mode,omitempty"`
	MaxModels   int                 `json:"max_models,omitempty"`
	TimeoutMS   int64               `json:"timeout_ms,omitempty"`
	Batch       []ntgdapi.BatchItem `json:"batch,omitempty"`
	Concurrency []int               `json:"concurrency"`
	Requests    int                 `json:"requests"`
	Warmup      int                 `json:"warmup"`
	Repeats     int                 `json:"repeats,omitempty"`
}

// point is the measured outcome of one (experiment, concurrency) cell.
type point struct {
	Name         string  `json:"name"`
	NsOp         int64   `json:"ns_op"` // p50, for trajectory compatibility
	P50Ns        int64   `json:"p50_ns"`
	P95Ns        int64   `json:"p95_ns"`
	P99Ns        int64   `json:"p99_ns"`
	RPS          float64 `json:"rps"`
	ModelsPerSec float64 `json:"models_per_sec"`
	Models       int64   `json:"models"`
	Nodes        int64   `json:"nodes"`
	Workers      int     `json:"workers"`
	Requests     int     `json:"requests"`
	Errors       int64   `json:"errors"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntgdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gridPath := fs.String("grid", "", "experiment grid JSON (default: the embedded grid)")
	addr := fs.String("addr", "", "address of a running ntgdd (default: start an in-process daemon)")
	maxRuns := fs.Int("max-runs", 0, "in-process daemon: max concurrent engine runs (0 = unlimited)")
	workers := fs.Int("workers", 1, "in-process daemon: engine worker pool size per run")
	cache := fs.Int("cache", 128, "in-process daemon: compiled-program cache capacity")
	overload := fs.Bool("overload", false, "run the shed-vs-park overload experiment instead of the grid (see overload.go)")
	overloadDur := fs.Duration("overload-duration", 3*time.Second, "open-loop duration per overload point")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *overload {
		slots := *maxRuns
		if slots <= 0 {
			slots = 4
		}
		return runOverload(stdout, stderr, slots, *overloadDur)
	}

	grid := defaultGrid
	if *gridPath != "" {
		b, err := os.ReadFile(*gridPath)
		if err != nil {
			fmt.Fprintln(stderr, "ntgdbench:", err)
			return 1
		}
		grid = b
	}
	var gf gridFile
	if err := json.Unmarshal(grid, &gf); err != nil {
		fmt.Fprintln(stderr, "ntgdbench: parsing grid:", err)
		return 1
	}

	base := "http://" + *addr
	if *addr == "" {
		srv := server.New(server.Config{
			CacheSize:         *cache,
			MaxConcurrentRuns: *maxRuns,
			Options:           ntgd.Options{Workers: *workers},
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(stderr, "ntgdbench:", err)
			return 1
		}
		defer ln.Close()
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln) //nolint:errcheck // torn down with the process
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(stderr, "ntgdbench: in-process daemon on %s\n", base)
	}

	maxC := 1
	for _, e := range gf.Experiments {
		for _, c := range e.Concurrency {
			if c > maxC {
				maxC = c
			}
		}
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        maxC * 2,
		MaxIdleConnsPerHost: maxC * 2,
	}}

	fmt.Fprintf(stderr, "%-24s %5s %10s %10s %10s %10s %12s %7s\n",
		"experiment", "c", "p50", "p95", "p99", "req/s", "models/s", "errs")
	for _, e := range gf.Experiments {
		body, err := requestBody(e)
		if err != nil {
			fmt.Fprintf(stderr, "ntgdbench: %s: %v\n", e.Name, err)
			return 1
		}
		for _, c := range e.Concurrency {
			pt, err := runPoint(client, base, e, body, c)
			if err != nil {
				fmt.Fprintf(stderr, "ntgdbench: %s/c=%d: %v\n", e.Name, c, err)
				return 1
			}
			fmt.Fprintf(stderr, "%-24s %5d %10s %10s %10s %10.1f %12.1f %7d\n",
				e.Name, c,
				time.Duration(pt.P50Ns).Round(time.Microsecond),
				time.Duration(pt.P95Ns).Round(time.Microsecond),
				time.Duration(pt.P99Ns).Round(time.Microsecond),
				pt.RPS, pt.ModelsPerSec, pt.Errors)
			line, err := json.Marshal(pt)
			if err != nil {
				fmt.Fprintln(stderr, "ntgdbench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	return 0
}

// requestBody builds the JSON body an experiment POSTs on every
// request, and resolves which endpoint it targets.
func requestBody(e experiment) ([]byte, error) {
	req := ntgdapi.Request{
		Program:   e.Program,
		Semantics: e.Semantics,
		Query:     e.Query,
		Mode:      e.Mode,
		MaxModels: e.MaxModels,
		TimeoutMS: e.TimeoutMS,
		Queries:   e.Batch,
	}
	if e.ProgramFile != "" {
		b, err := os.ReadFile(e.ProgramFile)
		if err != nil {
			return nil, err
		}
		req.Program = string(b)
	}
	if req.Program == "" {
		return nil, fmt.Errorf("experiment carries no program")
	}
	switch e.Kind {
	case "solve", "entails", "answers", "consistent", "batch":
	default:
		return nil, fmt.Errorf("unknown kind %q", e.Kind)
	}
	return json.Marshal(req)
}

// respStats is the subset of every success body the bench aggregates.
type respStats struct {
	Count int           `json:"count"`
	Stats ntgdapi.Stats `json:"stats"`
}

// runPoint measures one (experiment, concurrency) cell: warmup
// requests first, then repeats × requests timed requests issued by c
// workers pulling from one shared counter.
func runPoint(client *http.Client, base string, e experiment, body []byte, c int) (point, error) {
	url := base + "/v1/" + e.Kind
	do := func() (time.Duration, respStats, error) {
		start := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, respStats{}, err
		}
		var rs respStats
		derr := json.NewDecoder(resp.Body).Decode(&rs)
		resp.Body.Close()
		lat := time.Since(start)
		if resp.StatusCode != http.StatusOK {
			return lat, rs, fmt.Errorf("status %d", resp.StatusCode)
		}
		if derr != nil {
			return lat, rs, derr
		}
		return lat, rs, nil
	}

	warmup := e.Warmup
	if warmup <= 0 {
		warmup = c
	}
	for i := 0; i < warmup; i++ {
		if _, _, err := do(); err != nil {
			return point{}, fmt.Errorf("warmup: %w", err)
		}
	}

	repeats := e.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	total := e.Requests * repeats
	if total <= 0 {
		total = 64
	}

	var (
		remaining atomic.Int64
		errs      atomic.Int64
		models    atomic.Int64
		nodes     atomic.Int64
		mu        sync.Mutex
		lats      = make([]time.Duration, 0, total)
		wg        sync.WaitGroup
	)
	remaining.Store(int64(total))
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]time.Duration, 0, total/c+1)
			for remaining.Add(-1) >= 0 {
				lat, rs, err := do()
				if err != nil {
					errs.Add(1)
				}
				// Solve bodies carry the model count; every body carries
				// engine stats. models_emitted covers entails/answers/batch.
				n := int64(rs.Count)
				if n == 0 {
					n = rs.Stats.ModelsEmitted
				}
				models.Add(n)
				nodes.Add(rs.Stats.Nodes)
				local = append(local, lat)
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	secs := elapsed.Seconds()
	pt := point{
		Name:         fmt.Sprintf("%s/c=%d", e.Name, c),
		P50Ns:        pctile(lats, 0.50).Nanoseconds(),
		P95Ns:        pctile(lats, 0.95).Nanoseconds(),
		P99Ns:        pctile(lats, 0.99).Nanoseconds(),
		RPS:          float64(len(lats)) / secs,
		ModelsPerSec: float64(models.Load()) / secs,
		Models:       models.Load(),
		Nodes:        nodes.Load(),
		Workers:      c,
		Requests:     len(lats),
		Errors:       errs.Load(),
	}
	pt.NsOp = pt.P50Ns
	return pt, nil
}

// pctile returns the q-quantile of sorted latencies (nearest-rank).
func pctile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

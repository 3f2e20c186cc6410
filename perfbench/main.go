// Command perfbench is ntgd's end-to-end benchmark. It drives an
// in-process ntgdd — the handler stack of cmd/ntgdd, with its flag
// defaults, served over loopback — with one closed-loop client, checks
// every response against an answer it computes itself, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload hot-mix --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays every
// request through ntgd's public calls inside timed spans and reports
// the per-layer metrics instead. See README.md for the workloads and
// the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"ntgd"
	"ntgd/internal/server"
)

// windowSegments is how many equal parts the window is split into for
// latency, CPU and the heap peak.
const windowSegments = 10

// A run builds a daemon and warms it at least minSetups times, and
// again while the set-ups so far took less than setupBudget, up to
// maxSetups; setup_s is their median. A quick set-up is repeated more
// often, so one burst of host contention cannot decide its median.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hot-mix, hard-search or fresh-db")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if _, err := newWorkload(*name, *seed); err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload hot-mix|hard-search|fresh-db, --seconds > 0 and --trace 0|1")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))

	var res *result
	var err error
	if *trace == 0 {
		res, err = measure(*name, *seed, window, stdout)
	} else {
		res, err = traced(*name, *seed, window, *spans, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// daemon is an in-process ntgdd on a loopback port.
type daemon struct {
	hs   *http.Server
	done chan error
	url  string
	hc   *http.Client
}

// startDaemon builds the daemon exactly as cmd/ntgdd does with its
// default flags: sequential search, program cache 128, fact-base cache
// 64, no admission bound, no memory watermarks.
func startDaemon() (*daemon, error) {
	srv := server.New(server.Config{
		CacheSize:      128,
		DBCacheSize:    64,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     5 * time.Minute,
		MaxModels:      10000,
		WriteTimeout:   30 * time.Second,
		Options:        ntgd.Options{Workers: 1},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
		hc: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close drains the daemon and waits for its server goroutine.
func (d *daemon) close() error {
	d.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// send posts one request and reads the whole response.
func (d *daemon) send(o *op) (int, []byte, error) {
	resp, err := d.hc.Post(d.url+"/v1/"+o.endpoint, "application/json", strings.NewReader(string(o.body)))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (d *daemon) statz() (server.Statz, error) {
	resp, err := d.hc.Get(d.url + "/statz")
	if err != nil {
		return server.Statz{}, err
	}
	defer resp.Body.Close()
	var st server.Statz
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// tally counts attempts and failures. A failure is a transport error,
// a non-200 status or a response that disagrees with the reference.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(o *op, status int, body []byte, err error) {
	t.attempted++
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	if err == nil && o.check != nil {
		err = o.check(body)
	}
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s: %w", o.label, err)
		}
	}
}

// sample is one timed request.
type sample struct {
	label   string
	class   string
	latency time.Duration
	resp    int
}

// windowStats is what one timed window measured. CPU and allocation
// count the request path only: the client's own work between requests
// (generating the next input, checking the last response) is measured
// on its thread, locked for just that work, and subtracted.
type windowStats struct {
	samples  []sample
	cycles   []cycleEnd
	elapsed  time.Duration
	cpu      time.Duration
	alloc    uint64
	gcCycles uint64
	gcCPU    float64
	rtCPU    float64
	heap     []uint64 // per-bucket peaks, see heapSampler
	steal    float64
}

// cycleEnd marks the end of one cycle of the workload's mix: the
// requests sent and the request-path CPU spent so far in the window.
type cycleEnd struct {
	n   int
	cpu time.Duration
	at  time.Duration
}

// runWindow sends the workload's requests one at a time for dur, then
// on to the end of the current cycle, so every window holds whole
// cycles of the workload's mix.
// A non-nil tracer replays each successful request after its round
// trip.
func runWindow(d *daemon, wl workload, dur time.Duration, t *tally, tr *tracer) (windowStats, error) {
	var ws windowStats
	var skipCPU time.Duration
	var skipAlloc uint64
	cpu0, rc0, st0 := processCPU(), readCounters(), readCPUTimes()
	heap := startHeapSampler()
	start := time.Now()
	for time.Since(start) < dur || !wl.cycleDone() {
		runtime.LockOSThread()
		c0, a0 := threadCPU(), allocated()
		o := wl.next()
		err := o.encode()
		skipCPU += threadCPU() - c0
		skipAlloc += allocated() - a0
		runtime.UnlockOSThread()
		if err != nil {
			heap.Stop()
			return ws, err
		}

		sent := time.Now()
		status, body, err := d.send(o)
		lat := time.Since(sent)

		runtime.LockOSThread()
		c2, a2 := threadCPU(), allocated()
		t.record(o, status, body, err)
		ws.samples = append(ws.samples, sample{label: o.label, class: o.class, latency: lat, resp: len(body)})
		if tr != nil && err == nil && status == http.StatusOK {
			if err := tr.replay(o, lat); err != nil {
				heap.Stop()
				return ws, err
			}
		}
		skipCPU += threadCPU() - c2
		skipAlloc += allocated() - a2
		runtime.UnlockOSThread()
		if wl.cycleDone() {
			ws.cycles = append(ws.cycles, cycleEnd{n: len(ws.samples), cpu: processCPU() - cpu0 - skipCPU, at: time.Since(start)})
		}
	}
	ws.elapsed = time.Since(start)
	ws.heap = heap.Stop()
	cpu1, rc1 := processCPU(), readCounters()
	ws.cpu = cpu1 - cpu0 - skipCPU
	ws.alloc = rc1.allocBytes - rc0.allocBytes - skipAlloc
	ws.gcCycles = rc1.gcCycles - rc0.gcCycles
	ws.gcCPU = rc1.gcCPU - rc0.gcCPU
	ws.rtCPU = rc1.totalCPU - rc0.totalCPU
	ws.steal = stealPct(st0, readCPUTimes())
	return ws, nil
}

// warm sends the workload's warm-up pass, the last step of set-up.
func warm(d *daemon, wl workload, t *tally, tr *tracer) ([]sample, error) {
	var out []sample
	for _, o := range wl.warmup() {
		class := o.class
		if class == classHit {
			class = classMiss // the warm-up is every program's first request
		}
		if err := o.encode(); err != nil {
			return nil, err
		}
		sent := time.Now()
		status, body, err := d.send(o)
		lat := time.Since(sent)
		t.record(o, status, body, err)
		out = append(out, sample{label: o.label, class: class, latency: lat, resp: len(body)})
		if tr != nil && err == nil && status == http.StatusOK {
			if err := tr.replay(o, lat); err != nil {
				return nil, err
			}
		}
	}
	if t.failed > 0 {
		return nil, fmt.Errorf("warm-up failed: %w", t.firstErr)
	}
	return out, nil
}

// measure is the untraced run: repeated set-ups, then one timed window
// on the last daemon.
func measure(name string, seed int64, dur time.Duration, log io.Writer) (*result, error) {
	var setups []float64
	var d *daemon
	var wl workload
	var t tally
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		wl, _ = newWorkload(name, seed)
		start := time.Now()
		var err error
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
		if _, err := warm(d, wl, &t, nil); err != nil {
			d.close()
			return nil, err
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer d.close()
	runtime.GC()

	ws, err := runWindow(d, wl, dur, &t, nil)
	if err != nil {
		return nil, err
	}
	n := float64(len(ws.samples))
	p50s, cpus, heaps := ws.segments()
	fmt.Fprintf(log, "# %s seed=%d: %d requests in %.1fs, %s\n", name, seed, len(ws.samples), ws.elapsed.Seconds(),
		fmtEnv(ws.steal, runtime.GOMAXPROCS(0), runtime.Version()))
	// Latency and CPU time are printed, not gated: see README.md.
	fmt.Fprintf(log, "# latency_p50_ms=%.4f cpu_ms_per_req=%.4f (least-disturbed segment; whole window %.4f, %.4f)\n",
		slices.Min(p50s), slices.Min(cpus), quantile(latenciesMS(ws.samples, ""), 0.5), float64(ws.cpu)/1e6/n)
	if t.firstErr != nil {
		fmt.Fprintf(log, "# first failure: %v\n", t.firstErr)
	}
	printByLabel(log, ws.samples)
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"alloc_kb_per_req": {float64(ws.alloc) / 1024 / n, "KiB"},
			"heap_peak_mb":     {quantile(heaps, 0.5) / (1 << 20), "MiB"},
			"setup_s":          {quantile(setups, 0.5), "s"},
		},
	}, nil
}

// segments splits the window into windowSegments runs of whole
// cycles and returns, for each, the median latency and request-path
// CPU per request in milliseconds and the peak heap in bytes.
//
// Host contention only ever adds time, and on a shared host it comes
// and goes over seconds, so the least-disturbed segment is the
// steadiest estimate of the program's own cost: the latency and CPU
// figures are the minimum over segments. The heap's
// high-water mark depends on which allocation burst meets a garbage
// collection, so heap_peak_mb reports the median of the segments'
// peaks rather than one unlucky meeting.
func (ws windowStats) segments() (p50s, cpus, heaps []float64) {
	k := min(windowSegments, len(ws.cycles))
	var prev cycleEnd
	for i := 1; i <= k; i++ {
		end := ws.cycles[i*len(ws.cycles)/k-1]
		p50s = append(p50s, quantile(latenciesMS(ws.samples[prev.n:end.n], ""), 0.5))
		cpus = append(cpus, float64(end.cpu-prev.cpu)/1e6/float64(end.n-prev.n))
		heaps = append(heaps, float64(peakBetween(ws.heap, prev.at, end.at)))
		prev = end
	}
	return p50s, cpus, heaps
}

// latenciesMS returns the sorted latencies of one class ("" = all).
func latenciesMS(samples []sample, class string) []float64 {
	var out []float64
	for _, s := range samples {
		if class == "" || s.class == class {
			out = append(out, float64(s.latency)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates the q-quantile of sorted values (0 if none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	sorted = append([]float64(nil), sorted...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// printByLabel prints each request's count and median latency, or each
// class's when most requests are one of a kind.
func printByLabel(w io.Writer, samples []sample) {
	by := map[string][]float64{}
	var labels []string
	for _, s := range samples {
		if by[s.label] == nil {
			labels = append(labels, s.label)
		}
		by[s.label] = append(by[s.label], float64(s.latency)/1e6)
	}
	if len(labels) > 40 {
		by, labels = map[string][]float64{}, nil
		for _, s := range samples {
			if by[s.class] == nil {
				labels = append(labels, s.class)
			}
			by[s.class] = append(by[s.class], float64(s.latency)/1e6)
		}
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(w, "#   %-28s n=%-5d p50=%.3fms\n", l, len(by[l]), quantile(by[l], 0.5))
	}
}

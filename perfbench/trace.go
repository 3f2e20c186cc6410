package main

import (
	"bufio"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"ntgd"
	"ntgd/internal/server"
)

// The traced run replays every request, right after its HTTP round
// trip, through the public calls the daemon makes — Parse,
// Canonicalize, NewDatabase/AddFacts/Freeze, Compile, the engine entry
// point, CanonicalString plus JSON encoding — each inside a span. The
// replay keeps its own program and fact-base caches with the daemon's
// capacities, so it compiles and loads exactly when the daemon does.
// Spans stay in memory and are written out when the run ends.

// span is one timed call. Times are nanoseconds since the trace began;
// cpu is the client thread's CPU time and alloc the bytes allocated
// inside the span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
	cpu0   time.Duration
	alloc0 uint64
}

type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
	req   int

	progs *lru[*ntgd.Solver]
	dbs   *lru[*ntgd.Database]
	// per-request counts, indexed by request id
	stats map[int]ntgd.Stats
	facts map[int]int // facts loaded by an upload request
}

func newTracer() *tracer {
	return &tracer{
		t0: time.Now(), progs: newLRU[*ntgd.Solver](128), dbs: newLRU[*ntgd.Database](64),
		stats: map[int]ntgd.Stats{}, facts: map[int]int{},
	}
}

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, cpu0: threadCPU(), alloc0: allocated()})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
}

func (t *tracer) end() {
	now := int64(time.Since(t.t0))
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = now
	s.CPU = int64(threadCPU() - s.cpu0)
	s.Alloc = allocated() - s.alloc0
}

// timed wraps one call in a span.
func (t *tracer) timed(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

// recordHTTP adds the round trip, which the client timed before the
// replay began, as the first child of the open request span, and
// starts that span with it.
func (t *tracer) recordHTTP(latency time.Duration) {
	parent := t.open[len(t.open)-1]
	start := t.spans[parent].Start - int64(latency)
	t.spans[parent].Start = start
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.req, Name: "http", Start: start, End: start + int64(latency)})
}

// replay traces one request whose round trip took latency.
// It holds the goroutine on its OS thread, so a span's thread CPU is
// the replayed call's own.
func (t *tracer) replay(o *op, latency time.Duration) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t.req++
	t.begin("request")
	defer t.end()
	t.recordHTTP(latency)
	if o.endpoint == "db" {
		return t.replayUpload(o)
	}
	return t.replayQuery(o)
}

func (t *tracer) replayUpload(o *op) error {
	t.begin("db_load")
	defer t.end()
	var p *ntgd.Program
	if err := t.timed("db_parse", func() (err error) { p, err = ntgd.Parse(o.req.Facts); return err }); err != nil {
		return err
	}
	// The daemon's canonical fact set: sorted, deduplicated, hashed.
	var facts []ntgd.Atom
	var handle string
	t.timed("db_canonical", func() error {
		facts = append(facts, p.Facts...)
		sort.Slice(facts, func(i, j int) bool { return facts[i].String() < facts[j].String() })
		var b strings.Builder
		out := facts[:0]
		prev := ""
		for i, f := range facts {
			if k := f.String(); i == 0 || k != prev {
				out = append(out, f)
				prev = k
				b.WriteString(k)
				b.WriteString(".\n")
			}
		}
		facts = out
		h := sha256.Sum256([]byte(b.String()))
		handle = hex.EncodeToString(h[:])
		return nil
	})
	if handle != o.handle {
		return fmt.Errorf("%s: replay handle %s, daemon %s", o.label, handle, o.handle)
	}
	if t.dbs.get(handle) != nil {
		return nil
	}
	return t.timed("db_build", func() error {
		db := ntgd.NewDatabase()
		if err := db.AddFacts(facts...); err != nil {
			return err
		}
		t.facts[t.req] = db.Freeze()
		t.dbs.put(handle, db)
		return nil
	})
}

func semantics(s string) ntgd.Semantics {
	switch s {
	case "lp":
		return ntgd.LP
	case "op":
		return ntgd.Operational
	}
	return ntgd.SO
}

func parseQuery(src string) (ntgd.Query, error) {
	p, err := ntgd.Parse(src)
	if err != nil {
		return ntgd.Query{}, err
	}
	if len(p.Queries) != 1 {
		return ntgd.Query{}, fmt.Errorf("query %q: want exactly one", src)
	}
	return p.Queries[0], nil
}

func mode(s string) ntgd.Mode {
	if s == "brave" {
		return ntgd.Brave
	}
	return ntgd.Cautious
}

func (t *tracer) replayQuery(o *op) error {
	req := o.req
	ctx := context.Background()
	// parse is measured on its own; Canonicalize parses again inside,
	// as the daemon does, so only canonicalize counts toward the path.
	if err := t.timed("parse", func() error { _, err := ntgd.Parse(req.Program); return err }); err != nil {
		return err
	}
	var prog *ntgd.Program
	var canonical string
	if err := t.timed("canonicalize", func() (err error) { prog, canonical, err = server.Canonicalize(req.Program); return err }); err != nil {
		return err
	}
	var db *ntgd.Database
	if req.DB != "" {
		if db = t.dbs.get(req.DB); db == nil {
			return fmt.Errorf("%s: replay has no fact base %s", o.label, req.DB)
		}
	}
	sem := semantics(req.Semantics)
	key := sem.String() + "\x00" + req.DB + "\x00" + canonical
	solver := t.progs.get(key)
	if solver == nil {
		if err := t.timed("compile", func() (err error) {
			solver, err = ntgd.Compile(prog, ntgd.CompileOptions{Semantics: sem, Options: ntgd.Options{Workers: 1}, Database: db})
			return err
		}); err != nil {
			return err
		}
		t.progs.put(key, solver)
	}
	var queries []ntgd.Query
	if err := t.timed("query_parse", func() error {
		srcs := []string{req.Query}
		if o.endpoint == "batch" {
			srcs = srcs[:0]
			for _, it := range req.Queries {
				srcs = append(srcs, it.Query)
			}
		}
		for _, s := range srcs {
			if s == "" {
				continue
			}
			q, err := parseQuery(s)
			if err != nil {
				return err
			}
			queries = append(queries, q)
		}
		return nil
	}); err != nil {
		return err
	}

	var payload any
	var render func()
	var st ntgd.Stats
	err := t.timed("engine", func() error {
		switch o.endpoint {
		case "solve":
			res, err := solver.Collect(ctx, 10000)
			if err != nil {
				return err
			}
			st = res.Stats
			render = func() {
				models := make([]string, len(res.Models))
				for i, m := range res.Models {
					models[i] = m.CanonicalString()
				}
				payload = server.SolveResponse{Models: models, Count: len(models), Exhausted: res.Exhausted}
			}
		case "entails":
			res, err := solver.Entails(ctx, queries[0], mode(req.Mode))
			if err != nil {
				return err
			}
			st = res.Stats
			render = func() {
				p := server.EntailsResponse{Entailed: res.Entailed, NoModels: res.NoModels, Exhausted: res.Exhausted}
				if res.Witness != nil {
					p.Witness = res.Witness.CanonicalString()
				}
				payload = p
			}
		case "answers":
			res, err := solver.AnswerSet(ctx, queries[0], mode(req.Mode))
			if err != nil {
				return err
			}
			st = res.Stats
			render = func() { payload = server.AnswersResponse{Tuples: renderTuples(res.Tuples), Complete: res.Complete} }
		case "consistent":
			ok, err := solver.Consistent(ctx)
			if err != nil {
				return err
			}
			render = func() { payload = server.ConsistentResponse{Consistent: ok} }
		case "batch":
			var out []server.BatchResult
			var witnesses []*ntgd.FactStore
			for i, q := range queries {
				m := mode(req.Queries[i].Mode)
				if len(q.AnswerVars) > 0 {
					res, err := solver.AnswerSet(ctx, q, m)
					if err != nil {
						return err
					}
					st.Add(res.Stats)
					out = append(out, server.BatchResult{Tuples: renderTuples(res.Tuples), Complete: res.Complete})
					witnesses = append(witnesses, nil)
					continue
				}
				res, err := solver.Entails(ctx, q, m)
				if err != nil {
					return err
				}
				st.Add(res.Stats)
				out = append(out, server.BatchResult{Entailed: res.Entailed, NoModels: res.NoModels})
				witnesses = append(witnesses, res.Witness)
			}
			render = func() {
				for i, w := range witnesses {
					if w != nil {
						out[i].Witness = w.CanonicalString()
					}
				}
				payload = server.BatchResponse{Results: out}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: replay: %w", o.label, err)
	}
	t.stats[t.req] = st
	return t.timed("render", func() error {
		render()
		_, err := json.Marshal(payload)
		return err
	})
}

func renderTuples(tuples []ntgd.AnswerTuple) [][]string {
	out := make([][]string, len(tuples))
	for i, tu := range tuples {
		row := make([]string, len(tu))
		for j, c := range tu {
			row[j] = c.String()
		}
		out[i] = row
	}
	return out
}

// lru is a fixed-capacity least-recently-used map.
type lru[V any] struct {
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

func (l *lru[V]) get(key string) V {
	if e, ok := l.items[key]; ok {
		l.ll.MoveToFront(e)
		return e.Value.(*lruEntry[V]).val
	}
	var zero V
	return zero
}

func (l *lru[V]) put(key string, v V) {
	l.items[key] = l.ll.PushFront(&lruEntry[V]{key, v})
	for l.ll.Len() > l.cap {
		back := l.ll.Back()
		l.ll.Remove(back)
		delete(l.items, back.Value.(*lruEntry[V]).key)
	}
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layer aggregates the spans of one name.
type layer struct {
	n            int
	wall, self   time.Duration
	cpu, selfCPU time.Duration
	alloc        uint64
}

// layers sums spans by name over the requests keep selects. Self time
// is a span's duration minus the time its child spans cover.
func (t *tracer) layers(keep func(req int) bool) map[string]*layer {
	child := make([]time.Duration, len(t.spans))
	childCPU := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
			childCPU[s.Parent] += time.Duration(s.CPU)
		}
	}
	out := map[string]*layer{}
	for i, s := range t.spans {
		if !keep(s.Req) {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &layer{}
			out[s.Name] = l
		}
		d := time.Duration(s.End - s.Start)
		l.n++
		l.wall += d
		l.self += d - child[i]
		l.cpu += time.Duration(s.CPU)
		l.selfCPU += time.Duration(s.CPU) - childCPU[i]
		l.alloc += s.Alloc
	}
	return out
}

// pathLayers are the replayed calls that make up the daemon's request
// path. parse and the db_load children are nested views, not extra
// steps: Canonicalize parses again inside, and db_load covers its own.
var pathLayers = []string{"canonicalize", "db_load", "compile", "query_parse", "engine", "render"}

// traced is the --trace 1 run: set-up with the warm-up replayed, a
// traced window of two thirds of dur, then an untraced window of the
// rest on the same daemon for the runtime and client figures and the
// tracing overhead.
func traced(name string, seed int64, dur time.Duration, spansDir string, log io.Writer) (*result, error) {
	wl, _ := newWorkload(name, seed)
	var tl tally
	st0 := readCPUTimes()
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	defer d.close()
	tr := newTracer()
	warmSamples, err := warm(d, wl, &tl, tr)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	cs0, err := d.statz()
	if err != nil {
		return nil, err
	}
	firstReq := tr.req + 1
	tw, err := runWindow(d, wl, dur*2/3, &tl, tr)
	if err != nil {
		return nil, err
	}
	cs1, err := d.statz()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	uw, err := runWindow(d, wl, dur-dur*2/3, &tl, nil)
	if err != nil {
		return nil, err
	}
	steal := stealPct(st0, readCPUTimes())
	if err := tr.writeSpans(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
		return nil, err
	}

	inWindow := func(req int) bool { return req >= firstReq }
	win := tr.layers(inWindow)
	all := tr.layers(func(int) bool { return true })
	get := func(m map[string]*layer, name string) *layer {
		if l := m[name]; l != nil {
			return l
		}
		return &layer{}
	}
	n := float64(len(tw.samples))
	// A rate over nothing reads 0, never NaN, which JSON cannot carry.
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ms := func(d time.Duration, per float64) float64 { return ratio(float64(d)/1e6, per) }
	kb := func(b uint64, per float64) float64 { return ratio(float64(b)/1024, per) }

	var stats ntgd.Stats
	queries := 0
	for req, s := range tr.stats {
		if inWindow(req) {
			stats.Add(s)
			queries++
		}
	}
	facts := 0
	for _, f := range tr.facts {
		facts += f
	}
	uploads := get(all, "db_load")
	compiles := get(all, "compile")
	httpL := get(win, "http")
	var direct time.Duration
	for _, name := range pathLayers {
		direct += get(win, name).wall
	}
	engine := get(win, "engine")
	qs := float64(queries)
	cacheLookups := float64(cs1.Cache.Hits + cs1.Cache.Misses - cs0.Cache.Hits - cs0.Cache.Misses)
	dbLookups := float64(cs1.DBCache.Hits + cs1.DBCache.Misses - cs0.DBCache.Hits - cs0.DBCache.Misses)

	// Latency by class from the untraced requests: the warm-up pass
	// (each program's first, compiling request) and the untraced window.
	untraced := append(append([]sample(nil), warmSamples...), uw.samples...)
	uLat := latenciesMS(uw.samples, "")
	uP50s, uCPUs, _ := uw.segments()
	tLat := latenciesMS(tw.samples, "")

	m := map[string]metric{
		"canonicalize.ms_per_req":       {ms(get(win, "canonicalize").wall, n), "ms"},
		"canonicalize.alloc_kb_per_req": {kb(get(win, "canonicalize").alloc, n), "KiB"},
		"db_load.ms_per_upload":         {ms(uploads.wall, float64(uploads.n)), "ms"},
		"db_load.alloc_kb_per_fact":     {kb(uploads.alloc, float64(facts)), "KiB"},
		"compile.ms_per_miss":           {ms(compiles.wall, float64(compiles.n)), "ms"},
		"cache.hit_ratio":               {ratio(float64(cs1.Cache.Hits-cs0.Cache.Hits), cacheLookups), "ratio"},
		"cache.evictions_per_1k_req":    {1000 * float64(cs1.Cache.Evictions-cs0.Cache.Evictions) / n, "count"},
		"db_cache.hit_ratio":            {ratio(float64(cs1.DBCache.Hits-cs0.DBCache.Hits), dbLookups), "ratio"},
		"db_cache.evictions_per_1k_req": {1000 * float64(cs1.DBCache.Evictions-cs0.DBCache.Evictions) / n, "count"},
		"engine.ms_per_req":             {ms(engine.wall, n), "ms"},
		"engine.cpu_ms_per_req":         {ms(engine.cpu, n), "ms"},
		"engine.alloc_kb_per_req":       {kb(engine.alloc, n), "KiB"},
		"engine.share_pct":              {100 * ratio(float64(engine.wall), float64(httpL.wall)), "%"},
		"outside_engine.share_pct":      {100 * ratio(float64(httpL.wall-engine.wall), float64(httpL.wall)), "%"},
		"search.nodes_per_req":          {ratio(float64(stats.Nodes), qs), "count"},
		"search.branches_per_req":       {ratio(float64(stats.Branches), qs), "count"},
		"search.models_per_node":        {ratio(float64(stats.ModelsEmitted), float64(stats.Nodes)), "ratio"},
		"stability.checks_per_req":      {ratio(float64(stats.StabilityChecks), qs), "count"},
		"stability.fail_ratio":          {ratio(float64(stats.StabilityFailed), float64(stats.StabilityChecks)), "ratio"},
		"asp.conflicts_per_req":         {ratio(float64(stats.Conflicts), qs), "count"},
		"render.ms_per_req":             {ms(get(win, "render").wall, n), "ms"},
		"render.alloc_kb_per_req":       {kb(get(win, "render").alloc, n), "KiB"},
		"server.overhead_ms_per_req":    {ms(httpL.wall-direct, n), "ms"},
		"server.resp_kb_per_req":        {ratio(float64(totalResp(tw.samples))/1024, n), "KiB"},
		"gc.cycles_per_1k_req":          {1000 * float64(uw.gcCycles) / float64(len(uw.samples)), "count"},
		"gc.cpu_pct":                    {100 * ratio(uw.gcCPU, uw.rtCPU), "%"},
		"client.latency_p50_ms":         {slices.Min(uP50s), "ms"},
		"client.cpu_ms_per_req":         {slices.Min(uCPUs), "ms"},
		"client.latency_p99_ms":         {quantile(uLat, 0.99), "ms"},
		"client.latency_samples":        {float64(len(uLat)), "count"},
		"op.upload_p50_ms":              {quantile(latenciesMS(untraced, classUpload), 0.5), "ms"},
		"op.query_miss_p50_ms":          {quantile(latenciesMS(untraced, classMiss), 0.5), "ms"},
		"op.query_hit_p50_ms":           {quantile(latenciesMS(untraced, classHit), 0.5), "ms"},
		"env.steal_pct":                 {steal, "%"},
		"trace.overhead_pct":            {100 * (ratio(quantile(tLat, 0.5), quantile(uLat, 0.5)) - 1), "%"},
	}
	printLayerTable(log, name, win, httpL.wall, n)
	fmt.Fprintf(log, "# %s seed=%d traced: %d requests, untraced: %d, %s\n", name, seed, len(tw.samples), len(uw.samples),
		fmtEnv(steal, runtime.GOMAXPROCS(0), runtime.Version()))
	if tl.firstErr != nil {
		fmt.Fprintf(log, "# first failure: %v\n", tl.firstErr)
	}
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}, nil
}

func totalResp(samples []sample) int {
	n := 0
	for _, s := range samples {
		n += s.resp
	}
	return n
}

// printLayerTable prints the per-layer split of the traced window:
// self time, thread CPU and allocation per request, and each layer's
// share of the HTTP round trip.
func printLayerTable(w io.Writer, name string, win map[string]*layer, httpWall time.Duration, n float64) {
	fmt.Fprintf(w, "# %s per request     self_ms   cpu_ms  alloc_kb  %%of_http\n", name)
	names := []string{"http", "parse"}
	names = append(names, pathLayers...)
	names = append(names, "db_parse", "db_canonical", "db_build")
	for _, l := range names {
		s := win[l]
		if s == nil {
			continue
		}
		fmt.Fprintf(w, "# %-20s %8.3f %8.3f %9.1f %8.1f\n", l, float64(s.self)/1e6/n, float64(s.selfCPU)/1e6/n,
			float64(s.alloc)/1024/n, 100*float64(s.wall)/float64(httpWall))
	}
}

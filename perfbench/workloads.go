package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"ntgd/internal/server"
)

// Request classes, for the per-class latencies of the traced run.
const (
	classHit    = "hit"    // a query the program cache already holds
	classMiss   = "miss"   // a query whose program the daemon has not compiled
	classUpload = "upload" // a POST /v1/db fact-base upload
)

// op is one request of a workload: its endpoint, the request (encoded
// once, before any clock runs) and the check of the response body
// against the benchmark's own reference answer.
type op struct {
	label    string
	endpoint string // solve, entails, answers, consistent, batch or db
	class    string
	req      server.Request
	body     []byte
	check    func([]byte) error
	// db, when the request references an uploaded fact base, is the
	// upload that produced it; the handle is learnt from its response.
	db *op
	// handle is the upload's response handle, filled in by the client.
	handle string
}

func newOp(label, endpoint string, req server.Request, check func([]byte) error) *op {
	return &op{label: label, endpoint: endpoint, class: classHit, req: req, check: check}
}

// encode fills in the db handle and JSON-encodes the request.
func (o *op) encode() error {
	if o.db != nil {
		if o.db.handle == "" {
			return fmt.Errorf("%s: fact base not uploaded", o.label)
		}
		o.req.DB = o.db.handle
	}
	b, err := json.Marshal(o.req)
	o.body = b
	return err
}

// workload produces the request stream of one benchmark workload.
// warmup is the pass that fills the daemon's caches during set-up;
// next yields the timed stream, deterministically from the seed, in
// cycles that each hold the workload's exact request mix; cycleDone
// reports whether the last request sent closed a cycle.
type workload interface {
	warmup() []*op
	next() *op
	cycleDone() bool
}

func newWorkload(name string, seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "hot-mix":
		return newCycle(rng, hotMix(newNamer(rng))), nil
	case "hard-search":
		return newCycle(rng, hardSearch(newNamer(rng))), nil
	case "fresh-db":
		return newFreshDB(rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want hot-mix, hard-search or fresh-db)", name)
}

// namer renames constants with a seeded prefix. Every constant of a
// run carries the same prefix, so the canonical order of facts — and
// with it the engine's search order and effort — is the same for every
// seed while the inputs differ byte for byte.
type namer struct{ tag string }

func newNamer(rng *rand.Rand) namer {
	b := []byte{'c', 0, 0, 0}
	for i := 1; i < len(b); i++ {
		b[i] = byte('a' + rng.Intn(26))
	}
	return namer{tag: string(b)}
}

// src expands a program template, where $name marks a constant.
func (n namer) src(template string) string { return strings.ReplaceAll(template, "$", n.tag) }

// c names one constant.
func (n namer) c(name string) string { return n.tag + name }

// cycle is a fixed multiset of cached requests replayed in seeded
// order: every cycle sends each request its weight's number of times,
// shuffled, so the mix proportions are exact in every run.
type cycle struct {
	rng   *rand.Rand
	ops   []*op
	order []*op
	pos   int
}

type weighted struct {
	weight int
	op     *op
}

func newCycle(rng *rand.Rand, mix []weighted) *cycle {
	c := &cycle{rng: rng}
	for _, w := range mix {
		c.ops = append(c.ops, w.op)
		for i := 0; i < w.weight; i++ {
			c.order = append(c.order, w.op)
		}
	}
	c.pos = len(c.order)
	return c
}

// warmup sends every request once, uploads first; the queries then
// compile and fill the program cache.
func (c *cycle) warmup() []*op {
	var ups, qs []*op
	for _, o := range c.ops {
		if o.endpoint == "db" {
			ups = append(ups, o)
		} else {
			qs = append(qs, o)
		}
	}
	for _, o := range ups {
		o.class = classUpload
	}
	return append(ups, qs...)
}

func (c *cycle) cycleDone() bool { return c.pos == len(c.order) }

func (c *cycle) next() *op {
	if c.pos == len(c.order) {
		c.rng.Shuffle(len(c.order), func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
		c.pos = 0
	}
	c.pos++
	return c.order[c.pos-1]
}

// --- response checks -------------------------------------------------

func decode[T any](b []byte) (T, error) {
	var v T
	err := json.Unmarshal(b, &v)
	return v, err
}

// wantModels checks a solve response: exactly n distinct models, each
// accepted by model (given its atoms).
func wantModels(n int, model func(atoms []string) error) func([]byte) error {
	return func(b []byte) error {
		r, err := decode[server.SolveResponse](b)
		if err != nil {
			return err
		}
		if r.Count != n || len(r.Models) != n || r.Exhausted {
			return fmt.Errorf("%d models (exhausted=%v), want %d", len(r.Models), r.Exhausted, n)
		}
		seen := map[string]bool{}
		for _, m := range r.Models {
			if seen[m] {
				return fmt.Errorf("model returned twice: %s", m)
			}
			seen[m] = true
			if model != nil {
				if err := model(splitAtoms(m)); err != nil {
					return fmt.Errorf("model %s: %w", m, err)
				}
			}
		}
		return nil
	}
}

func wantEntailed(want bool) func([]byte) error {
	return func(b []byte) error {
		r, err := decode[server.EntailsResponse](b)
		if err != nil {
			return err
		}
		if r.Entailed != want || r.Exhausted {
			return fmt.Errorf("entailed=%v (exhausted=%v), want %v", r.Entailed, r.Exhausted, want)
		}
		return nil
	}
}

func wantTuples(want [][]string) func([]byte) error {
	return func(b []byte) error {
		r, err := decode[server.AnswersResponse](b)
		if err != nil {
			return err
		}
		if !r.Complete {
			return fmt.Errorf("answers incomplete")
		}
		return sameTuples(r.Tuples, want)
	}
}

func wantConsistent(want bool) func([]byte) error {
	return func(b []byte) error {
		r, err := decode[server.ConsistentResponse](b)
		if err != nil {
			return err
		}
		if r.Consistent != want {
			return fmt.Errorf("consistent=%v, want %v", r.Consistent, want)
		}
		return nil
	}
}

// batchWant is the expected outcome of one batch item: a verdict for a
// Boolean query, or the tuples of an n-ary one.
type batchWant struct {
	entailed bool
	tuples   [][]string
}

func wantBatch(items ...batchWant) func([]byte) error {
	return func(b []byte) error {
		r, err := decode[server.BatchResponse](b)
		if err != nil {
			return err
		}
		if len(r.Results) != len(items) {
			return fmt.Errorf("%d batch results, want %d", len(r.Results), len(items))
		}
		for i, w := range items {
			got := r.Results[i]
			if got.Error != "" {
				return fmt.Errorf("batch item %d: %s", i, got.Error)
			}
			if w.tuples != nil {
				if err := sameTuples(got.Tuples, w.tuples); err != nil {
					return fmt.Errorf("batch item %d: %w", i, err)
				}
			} else if got.Entailed != w.entailed {
				return fmt.Errorf("batch item %d: entailed=%v, want %v", i, got.Entailed, w.entailed)
			}
		}
		return nil
	}
}

// wantUpload checks a /v1/db response: the distinct fact count the
// benchmark computed itself, and a content handle.
func wantUpload(o *op, facts int) func([]byte) error {
	return func(b []byte) error {
		r, err := decode[server.DBResponse](b)
		if err != nil {
			return err
		}
		if r.Facts != facts || len(r.Handle) != 64 {
			return fmt.Errorf("upload of %d facts answered %d facts, handle %q", facts, r.Facts, r.Handle)
		}
		o.handle = r.Handle
		return nil
	}
}

func uploadOp(label string, facts []string) *op {
	distinct := map[string]bool{}
	var b strings.Builder
	for _, f := range facts {
		distinct[f] = true
		b.WriteString(f)
		b.WriteString(".\n")
	}
	o := newOp(label, "db", server.Request{Facts: b.String()}, nil)
	o.check = wantUpload(o, len(distinct))
	return o
}

// hasAtoms accepts a model containing every listed atom.
func hasAtoms(want ...string) func([]string) error {
	return func(atoms []string) error {
		set := map[string]bool{}
		for _, a := range atoms {
			set[a] = true
		}
		for _, w := range want {
			if !set[w] {
				return fmt.Errorf("missing %s", w)
			}
		}
		return nil
	}
}

// subsetChoice is the paper's even-loop choice over n items (2^n
// stable models), padded with pad inert facts and a rule copying them.
func subsetChoice(nm namer, n, pad int) (string, []string) {
	var b strings.Builder
	items := make([]string, n)
	for i := range items {
		items[i] = nm.c(fmt.Sprintf("i%d", i))
		fmt.Fprintf(&b, "item(%s).\n", items[i])
	}
	for i := 0; i < pad; i++ {
		fmt.Fprintf(&b, "pad(%s).\n", nm.c(fmt.Sprintf("p%d", i)))
	}
	if pad > 0 {
		b.WriteString("pad(X) -> padded(X).\n")
	}
	b.WriteString("item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n")
	return b.String(), items
}

// oneOfEach accepts a model holding exactly one of in/out per item,
// plus padded(p) for every pad constant.
func oneOfEach(items []string, pads []string) func([]string) error {
	return func(atoms []string) error {
		in := map[string]int{}
		padded := 0
		for _, a := range atoms {
			switch {
			case strings.HasPrefix(a, "in("), strings.HasPrefix(a, "out("):
				in[a[strings.IndexByte(a, '(')+1:len(a)-1]]++
			case strings.HasPrefix(a, "padded("):
				padded++
			}
		}
		for _, it := range items {
			if in[it] != 1 {
				return fmt.Errorf("item %s chosen %d times", it, in[it])
			}
		}
		if padded != len(pads) {
			return fmt.Errorf("%d padded atoms, want %d", padded, len(pads))
		}
		return nil
	}
}

// --- hot-mix ---------------------------------------------------------

const fatherTmpl = `person($alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
`

const section32Tmpl = `p($0).
p(X), not t(X) -> r(X).
r(X) -> t(X).
`

const triangleTmpl = `node($1). node($2). node($3).
edge($1,$2). edge($2,$3). edge($3,$1).
node(X) -> red(X) | green(X).
edge(X,Y), red(X), red(Y) -> bad.
edge(X,Y), green(X), green(Y) -> bad.
`

// cqaTmpl is the subset-repair encoding of Section 7.1 for the
// manager instance of the paper's consistent query answering example:
// sales has two managers, which the denial forbids. Its three repairs
// are {mgr(sales,ann), mgr(sales,bob), mgr(hr,eve)} (both neq facts
// dropped) and the two that drop one sales manager, so emp(eve) is
// certain, emp(ann) is not, and no X is certainly both a sales
// manager and an employee.
const cqaTmpl = `db_mgr($sales,$ann). db_mgr($sales,$bob). db_mgr($hr,$eve).
db_neq($ann,$bob). db_neq($bob,$ann).
db_mgr(X0,X1), not out_mgr(X0,X1) -> in_mgr(X0,X1).
db_mgr(X0,X1), not in_mgr(X0,X1) -> out_mgr(X0,X1).
in_mgr(X0,X1) -> mgr(X0,X1).
out_mgr(X0,X1), not bl_mgr(X0,X1) -> false.
db_neq(X0,X1), not out_neq(X0,X1) -> in_neq(X0,X1).
db_neq(X0,X1), not in_neq(X0,X1) -> out_neq(X0,X1).
in_neq(X0,X1) -> neq(X0,X1).
out_neq(X0,X1), not bl_neq(X0,X1) -> false.
in_mgr(D,X), in_mgr(D,Y), in_neq(X,Y) -> false.
out_mgr(D,X), in_mgr(D,Y), in_neq(X,Y) -> bl_mgr(D,X).
out_mgr(D,Y), in_mgr(D,X), in_neq(X,Y) -> bl_mgr(D,Y).
out_mgr(D,Y), in_neq(Y,Y) -> bl_mgr(D,Y).
out_neq(X,Y), in_mgr(D,X), in_mgr(D,Y) -> bl_neq(X,Y).
false, not aux -> aux.
mgr(D,X) -> emp(X).
`

// qbfSigma is the fixed rule set of the 2-QBF reduction of Section 5.3
// with the brave answer rule of Section 7.1: ans is bravely entailed
// iff the formula encoded by the facts is true.
const qbfSigma = `-> zero(X).
-> one(X).
zero(X), one(X) -> error.
zero(X) -> truthVal(X).
one(X) -> truthVal(X).
exists(X) -> assign(X,Y).
forall(X) -> assign(X,Y).
assign(X,Y), not truthVal(Y) -> error.
not saturate -> saturate.
forall(X), truthVal(Y), saturate -> assign(X,Y).
nil(X), truthVal(Y) -> assign(X,Y).
cl(P1,P2,P3,N1,N2,N3),
  assign(P1,O), assign(P2,O), assign(P3,O), one(O),
  assign(N1,Z), assign(N2,Z), assign(N3,Z), zero(Z) -> saturate.
not error -> ans.
`

// qbfProgram encodes ∃X∀Y ⋁terms as the reduction's database: one cl
// fact per term, positive variables in the first three places and
// negative ones in the last three, star elsewhere. It returns the
// source and the brute-force verdict.
func qbfProgram(nm namer, nExists, nForall int, terms [][3]qbfLit) (string, bool) {
	var b strings.Builder
	name := func(l qbfLit) string {
		if l.exists {
			return nm.c(fmt.Sprintf("x%d", l.v))
		}
		return nm.c(fmt.Sprintf("y%d", l.v))
	}
	for i := 0; i < nExists; i++ {
		fmt.Fprintf(&b, "exists(%s).\n", nm.c(fmt.Sprintf("x%d", i)))
	}
	for i := 0; i < nForall; i++ {
		fmt.Fprintf(&b, "forall(%s).\n", nm.c(fmt.Sprintf("y%d", i)))
	}
	star := nm.c("star")
	for _, t := range terms {
		var pos, neg [3]string
		for i, l := range t {
			pos[i], neg[i] = name(l), star
			if l.neg {
				pos[i], neg[i] = star, name(l)
			}
		}
		fmt.Fprintf(&b, "cl(%s,%s,%s,%s,%s,%s).\n", pos[0], pos[1], pos[2], neg[0], neg[1], neg[2])
	}
	fmt.Fprintf(&b, "nil(%s).\n", star)
	b.WriteString(qbfSigma)
	return b.String(), qbfTrue(nExists, nForall, terms)
}

func ex(v int, neg bool) qbfLit { return qbfLit{exists: true, v: v, neg: neg} }
func fa(v int, neg bool) qbfLit { return qbfLit{v: v, neg: neg} }

// hotMix is the repeat-query workload: small paper programs, every
// request a cache hit after warm-up.
func hotMix(nm namer) []weighted {
	father := nm.src(fatherTmpl)
	q1 := nm.src("?- person($alice), not hasFather($alice,$bob).")
	q2 := "?- person(X), not abnormal(X)."
	q3 := "?- person(X), abnormal(X)."
	alice := nm.c("alice")

	sub3, items3 := subsetChoice(nm, 3, 0)
	sub4, items4 := subsetChoice(nm, 4, 0)
	sub5, items5 := subsetChoice(nm, 5, 0)
	var all3 [][]string
	for _, it := range items3 {
		all3 = append(all3, []string{it})
	}
	sortTuples(all3)
	var all4 [][]string
	for _, it := range items4 {
		all4 = append(all4, []string{it})
	}
	sortTuples(all4)

	// E7 data scaling: 64 items uploaded once, one existential rule.
	var itemFacts []string
	var items64 [][]string
	for i := 0; i < 64; i++ {
		it := nm.c(fmt.Sprintf("i%02d", i))
		itemFacts = append(itemFacts, "item("+it+")")
		items64 = append(items64, []string{it})
	}
	sortTuples(items64)
	items := uploadOp("e7-items", itemFacts)
	tagged := "item(X) -> tagged(X,Y).\n"
	e7answers := newOp("e7-answers-lp", "answers", server.Request{Program: tagged, Semantics: "lp", Query: "?-[X] tagged(X,Y)."}, wantTuples(items64))
	e7answers.db = items
	// The operational semantics invents one fresh null per item.
	var e7small strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&e7small, "item(%s).\n", nm.c(fmt.Sprintf("i%d", i)))
	}
	e7small.WriteString(tagged)
	e7solve := newOp("e7-solve-op", "solve", server.Request{Program: e7small.String(), Semantics: "op"}, wantModels(1, func(atoms []string) error {
		if len(atoms) != 16 {
			return fmt.Errorf("%d atoms, want 8 items and 8 tagged", len(atoms))
		}
		return nil
	}))

	qbfSat, satV := qbfProgram(nm, 1, 1, [][3]qbfLit{{ex(0, false), fa(0, false), fa(0, false)}, {ex(0, false), fa(0, true), fa(0, true)}})
	cqa := nm.src(cqaTmpl)

	return []weighted{
		{2, newOp("father-q1-so", "entails", server.Request{Program: father, Query: q1}, wantEntailed(false))},
		{1, newOp("father-q1-lp", "entails", server.Request{Program: father, Semantics: "lp", Query: q1}, wantEntailed(true))},
		{1, newOp("father-q1-op", "entails", server.Request{Program: father, Semantics: "op", Query: q1}, wantEntailed(true))},
		{1, newOp("father-q2-so", "entails", server.Request{Program: father, Query: q2}, wantEntailed(true))},
		// SO models: alice's father is a fresh null or alice herself.
		{1, newOp("father-solve-so", "solve", server.Request{Program: father}, wantModels(2, hasAtoms("person("+alice+")")))},
		{1, newOp("father-batch-so", "batch", server.Request{Program: father, Queries: []server.BatchItem{{Query: q1}, {Query: q2}, {Query: q3}}},
			wantBatch(batchWant{entailed: false}, batchWant{entailed: true}, batchWant{entailed: false}))},
		{1, newOp("section32-solve-so", "solve", server.Request{Program: nm.src(section32Tmpl)}, wantModels(0, nil))},
		{1, newOp("section32-consistent-lp", "consistent", server.Request{Program: nm.src(section32Tmpl), Semantics: "lp"}, wantConsistent(false))},
		// A triangle has no proper 2-colouring, so all 2^3 colourings clash.
		{1, newOp("triangle-bad-brave", "entails", server.Request{Program: nm.src(triangleTmpl), Query: "?- bad.", Mode: "brave"},
			wantEntailed(properColorings(3, 2, [][2]int{{0, 1}, {1, 2}, {2, 0}}) < 8))},
		{1, newOp("triangle-solve-so", "solve", server.Request{Program: nm.src(triangleTmpl)}, wantModels(8, hasAtoms("bad")))},
		{1, newOp("subset3-solve-so", "solve", server.Request{Program: sub3}, wantModels(1<<3, oneOfEach(items3, nil)))},
		{1, newOp("subset4-solve-lp", "solve", server.Request{Program: sub4, Semantics: "lp"}, wantModels(1<<4, oneOfEach(items4, nil)))},
		{1, newOp("subset5-solve-so", "solve", server.Request{Program: sub5}, wantModels(1<<5, oneOfEach(items5, nil)))},
		{1, newOp("subset4-in-brave", "entails", server.Request{Program: sub4, Query: "?- in(" + items4[0] + ").", Mode: "brave"}, wantEntailed(true))},
		{1, newOp("subset4-batch", "batch", server.Request{Program: sub4, Queries: []server.BatchItem{
			{Query: "?- in(" + items4[0] + ").", Mode: "brave"},
			{Query: "?- in(" + items4[0] + ").", Mode: "cautious"},
			{Query: "?- in(" + items4[0] + "), out(" + items4[0] + ").", Mode: "brave"},
			{Query: "?-[X] in(X).", Mode: "brave"},
		}}, wantBatch(batchWant{entailed: true}, batchWant{entailed: false}, batchWant{entailed: false}, batchWant{tuples: all4}))},
		{1, newOp("subset3-answers-brave", "answers", server.Request{Program: sub3, Query: "?-[X] in(X).", Mode: "brave"}, wantTuples(all3))},
		{1, items},
		{2, e7answers},
		{1, e7solve},
		{1, newOp("qbf-true-brave", "entails", server.Request{Program: qbfSat, Query: "?- ans.", Mode: "brave"}, wantEntailed(satV))},
		{1, newOp("cqa-ann", "entails", server.Request{Program: cqa, Query: nm.src("?- emp($ann).")}, wantEntailed(false))},
	}
}

// --- hard-search -----------------------------------------------------

// graphSeed fixes the random graphs of hard-search. The run seed only
// renames their vertices: a random 3-colouring's search effort swings
// fivefold from graph to graph, so a seeded graph would measure the
// draw rather than the program.
const graphSeed = 5

func randomGraph(rng *rand.Rand, n, m int) [][2]int {
	seen := map[[2]int]bool{}
	var edges [][2]int
	for len(edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}

func hardSearch(nm namer) []weighted {
	g := rand.New(rand.NewSource(graphSeed))

	sub8, items8 := subsetChoice(nm, 8, 0)
	wide, items7 := subsetChoice(nm, 7, 256)
	pads := make([]string, 256)

	// 3-colouring of a random graph, 10 vertices and 18 edges.
	edges := randomGraph(g, 10, 18)
	var col strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&col, "node(%s).\n", nm.c(fmt.Sprintf("n%d", i)))
	}
	for _, e := range edges {
		fmt.Fprintf(&col, "edge(%s,%s).\n", nm.c(fmt.Sprintf("n%d", e[0])), nm.c(fmt.Sprintf("n%d", e[1])))
	}
	col.WriteString("node(X) -> r(X) | g(X) | b(X).\nedge(X,Y), r(X), r(Y) -> clash.\nedge(X,Y), g(X), g(Y) -> clash.\nedge(X,Y), b(X), b(Y) -> clash.\n:- clash.\n")
	colorings := properColorings(10, 3, edges)

	sat, satBad := certainColoring(nm, g)
	strat, strata, facts := stratified(nm, g)
	edb := uploadOp("strat-edb", facts)
	stratQ := newOp("stratified-answers", "answers", server.Request{Program: strat, Query: "?-[X,Y] drains(X,Y)."},
		wantTuples(answerTuples(naiveModel(parseFacts(facts), strata), "drains")))
	stratQ.db = edb

	// ∃x∀y (x∧y) ∨ (¬x∧¬y) is false: refuting it saturates every guess.
	qbf, qbfV := qbfProgram(nm, 1, 1, [][3]qbfLit{{ex(0, false), fa(0, false), fa(0, false)}, {ex(0, true), fa(0, true), fa(0, true)}})

	return []weighted{
		// Weighted to nine requests a cycle, so the median falls inside
		// one program's latencies rather than between two.
		{2, newOp("subset8-solve-so", "solve", server.Request{Program: sub8}, wantModels(1<<8, oneOfEach(items8, nil)))},
		{1, newOp("choice-wide-7-256", "solve", server.Request{Program: wide}, wantModels(1<<7, oneOfEach(items7, pads)))},
		{1, newOp("color3-solve-so", "solve", server.Request{Program: col.String()}, wantModels(colorings, nil))},
		{1, newOp("color3-solve-lp", "solve", server.Request{Program: col.String(), Semantics: "lp"}, wantModels(colorings, nil))},
		{1, newOp("certcol-bad-brave", "entails", server.Request{Program: sat, Query: "?- bad.", Mode: "brave"}, wantEntailed(satBad))},
		{1, edb},
		{1, stratQ},
		{1, newOp("qbf-false-brave", "entails", server.Request{Program: qbf, Query: "?- ans.", Mode: "brave"}, wantEntailed(qbfV))},
	}
}

// certainColoring is the DATALOG∨ saturation encoding of certain
// 3-colourability for a random labelled graph: bad is bravely entailed
// iff some assignment of the edge labels leaves an uncolourable graph.
func certainColoring(nm namer, g *rand.Rand) (string, bool) {
	const nV, nVars, nE, k = 5, 1, 7, 3
	var b strings.Builder
	for i := 0; i < nV; i++ {
		fmt.Fprintf(&b, "vtx(%s).\n", nm.c(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < nVars; i++ {
		fmt.Fprintf(&b, "bvar(%s).\n", nm.c(fmt.Sprintf("p%d", i)))
	}
	var edges []labeledEdge
	for _, e := range randomGraph(g, nV, nE) {
		le := labeledEdge{u: e[0], w: e[1], v: g.Intn(nVars), neg: g.Intn(2) == 1}
		edges = append(edges, le)
		pred := "edgp"
		if le.neg {
			pred = "edgn"
		}
		fmt.Fprintf(&b, "%s(%s,%s,%s).\n", pred, nm.c(fmt.Sprintf("v%d", le.u)), nm.c(fmt.Sprintf("v%d", le.w)), nm.c(fmt.Sprintf("p%d", le.v)))
	}
	b.WriteString("vtx(X) -> col1(X) | col2(X) | col3(X).\nbvar(V) -> tt(V) | ff(V).\n")
	for c := 1; c <= k; c++ {
		fmt.Fprintf(&b, "edgp(X,Y,V), tt(V), col%d(X), col%d(Y) -> w.\n", c, c)
		fmt.Fprintf(&b, "edgn(X,Y,V), ff(V), col%d(X), col%d(Y) -> w.\n", c, c)
		fmt.Fprintf(&b, "w, vtx(X) -> col%d(X).\n", c)
	}
	b.WriteString("w -> bad.\n")
	return b.String(), someAssignmentUncolorable(nV, nVars, k, edges)
}

// stratified is a two-strata program over an uploaded random graph
// of about 128 facts: reachability and out-degree, then the sinks —
// the nodes with no out-edge — and which nodes drain into them. The
// engine branches once per sink on the negated hasOut.
func stratified(nm namer, g *rand.Rand) (string, [][]dlRule, []string) {
	const nodes, sinks, outDeg = 40, 9, 3
	v := func(i int) string { return nm.c(fmt.Sprintf("v%02d", i)) }
	var facts []string
	for i := 0; i < nodes; i++ {
		facts = append(facts, fmt.Sprintf("node(%s)", v(i)))
	}
	for i := sinks; i < nodes; i++ {
		for k := 0; k < outDeg; k++ {
			facts = append(facts, fmt.Sprintf("edge(%s,%s)", v(i), v(g.Intn(nodes))))
		}
	}
	a := func(p string, args ...string) dlAtom { return dlAtom{pred: p, args: args} }
	strata := [][]dlRule{
		{
			{head: a("hasOut", "X"), pos: []dlAtom{a("edge", "X", "Y")}},
			{head: a("reach", "X", "Y"), pos: []dlAtom{a("edge", "X", "Y")}},
			{head: a("reach", "X", "Z"), pos: []dlAtom{a("reach", "X", "Y"), a("edge", "Y", "Z")}},
		},
		{
			{head: a("sink", "X"), pos: []dlAtom{a("node", "X")}, neg: []dlAtom{a("hasOut", "X")}},
			{head: a("drains", "X", "Y"), pos: []dlAtom{a("reach", "X", "Y"), a("sink", "Y")}},
		},
	}
	var b strings.Builder
	for _, s := range strata {
		for _, r := range s {
			b.WriteString(r.source())
			b.WriteByte('\n')
		}
	}
	return b.String(), strata, facts
}

// parseFacts reads the benchmark's own fact renderings back into atoms.
func parseFacts(facts []string) []dlAtom {
	out := make([]dlAtom, len(facts))
	for i, f := range facts {
		open := strings.IndexByte(f, '(')
		if open < 0 {
			out[i] = dlAtom{pred: f}
			continue
		}
		out[i] = dlAtom{pred: f[:open], args: strings.Split(f[open+1:len(f)-1], ",")}
	}
	return out
}

// --- fresh-db --------------------------------------------------------

// freshDB uploads a new fact base every cycle and queries it with
// programs the daemon has never compiled, next to re-queries of recent
// (program, base) pairs that the caches still hold. A cycle is
// upload, miss, hit, miss, hit: one write to two misses and two hits,
// an odd count so the median request falls inside one class.
type freshDB struct {
	rng    *rand.Rand
	nm     namer
	nBase  int
	nProg  int
	bases  []*freshBase // most recent last
	recent []*op        // recent queries, re-sent as hits
	queue  []*op
}

type freshBase struct {
	upload *op
	facts  []dlAtom
	skills []string
	depts  []string
}

// Fact-base shape: a few thousand facts, far below the engine's
// 16,384-atom budget probe with every derived atom included.
const (
	freshEmps   = 450
	freshDepts  = 30
	freshSkills = 40
	hitWindow   = 12 // hits re-send one of the last hitWindow queries
)

func newFreshDB(rng *rand.Rand) *freshDB {
	return &freshDB{rng: rng, nm: newNamer(rng)}
}

// warmup uploads one more base than the 64-entry fact-base cache holds,
// querying each once, so the window opens with a full cache that
// evicts.
func (f *freshDB) warmup() []*op {
	var ops []*op
	for f.nBase < 65 {
		b := f.newBase()
		ops = append(ops, b.upload, f.query(b))
	}
	return ops
}

func (f *freshDB) next() *op {
	if len(f.queue) == 0 {
		f.queue = f.cycle()
	}
	o := f.queue[0]
	f.queue = f.queue[1:]
	return o
}

func (f *freshDB) cycleDone() bool { return len(f.queue) == 0 }

func (f *freshDB) cycle() []*op {
	base := f.newBase()
	return []*op{base.upload, f.query(base), f.hit(), f.query(f.bases[f.rng.Intn(len(f.bases))]), f.hit()}
}

func (f *freshDB) newBase() *freshBase {
	f.nBase++
	rng, c := f.rng, f.nm.c
	b := &freshBase{}
	for d := 0; d < freshDepts; d++ {
		b.depts = append(b.depts, c(fmt.Sprintf("b%dd%02d", f.nBase, d)))
	}
	for s := 0; s < freshSkills; s++ {
		b.skills = append(b.skills, c(fmt.Sprintf("s%02d", s)))
	}
	add := func(p string, args ...string) { b.facts = append(b.facts, dlAtom{pred: p, args: args}) }
	for _, d := range b.depts {
		add("dept", d)
	}
	for e := 0; e < freshEmps; e++ {
		emp := c(fmt.Sprintf("b%de%03d", f.nBase, e))
		d := b.depts[rng.Intn(freshDepts)]
		add("emp", emp, d)
		for k := 0; k < 3; k++ {
			add("skill", emp, b.skills[rng.Intn(freshSkills)])
		}
		if rng.Intn(4) == 0 {
			add("senior", emp)
		}
	}
	for _, d := range b.depts {
		add("mgr", d, c(fmt.Sprintf("b%de%03d", f.nBase, rng.Intn(freshEmps))))
	}
	src := make([]string, len(b.facts))
	for i, a := range b.facts {
		src[i] = a.String()
	}
	rng.Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] })
	b.upload = uploadOp(fmt.Sprintf("base-%d", f.nBase), src)
	b.upload.class = classUpload
	f.bases = append(f.bases, b)
	if len(f.bases) > hitWindow {
		f.bases = f.bases[1:]
	}
	return b
}

// query builds a program the daemon has never seen — a fresh answer
// predicate over one of three positive join shapes, so the search
// stays at one node — and its reference answer.
func (f *freshDB) query(b *freshBase) *op {
	f.nProg++
	q := fmt.Sprintf("q%d", f.nProg)
	a := func(p string, args ...string) dlAtom { return dlAtom{pred: p, args: args} }
	skill := b.skills[f.rng.Intn(len(b.skills))]
	var rules []dlRule
	switch f.nProg % 3 {
	case 0: // employees with a skill, in a department whose manager is senior
		rules = []dlRule{{head: a(q, "X"), pos: []dlAtom{a("emp", "X", "D"), a("skill", "X", skill), a("mgr", "D", "M"), a("senior", "M")}}}
	case 1: // seniors with a colleague who has the skill
		rules = []dlRule{
			{head: a(q+"s", "D"), pos: []dlAtom{a("skill", "Y", skill), a("emp", "Y", "D")}},
			{head: a(q, "X"), pos: []dlAtom{a("senior", "X"), a("emp", "X", "D"), a(q+"s", "D")}},
		}
	default: // managers of someone with the skill
		rules = []dlRule{{head: a(q, "M"), pos: []dlAtom{a("skill", "X", skill), a("emp", "X", "D"), a("mgr", "D", "M")}}}
	}
	var src strings.Builder
	for _, r := range rules {
		src.WriteString(r.source())
		src.WriteByte('\n')
	}
	want := answerTuples(naiveModel(b.facts, [][]dlRule{rules}), q)
	o := newOp(fmt.Sprintf("%s-on-%s", q, b.upload.label), "answers", server.Request{Program: src.String(), Query: fmt.Sprintf("?-[X] %s(X).", q)}, wantTuples(want))
	o.class = classMiss
	o.db = b.upload
	f.recent = append(f.recent, o)
	if len(f.recent) > hitWindow {
		f.recent = f.recent[1:]
	}
	return o
}

// hit re-sends a recent query. Its program and base are among the
// last hitWindow of each, well inside both caches.
func (f *freshDB) hit() *op {
	prev := f.recent[f.rng.Intn(len(f.recent))]
	o := *prev
	o.class = classHit
	return &o
}

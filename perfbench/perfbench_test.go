package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"ntgd"
)

var workloadNames = []string{"hot-mix", "hard-search", "fresh-db"}

// inputs renders the first n requests of a workload — its warm-up pass,
// then the timed stream — as the bytes the daemon would receive, with
// fact-base handles left out since the daemon assigns them.
func inputs(t *testing.T, name string, seed int64, n int) []byte {
	t.Helper()
	wl, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	emit := func(o *op) {
		b, err := json.Marshal(o.req)
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString(o.endpoint)
		buf.Write(b)
		buf.WriteByte('\n')
	}
	for _, o := range wl.warmup() {
		emit(o)
	}
	for i := 0; i < n; i++ {
		emit(wl.next())
	}
	return buf.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, b := inputs(t, name, 7, 200), inputs(t, name, 7, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two generations", name)
		}
		if c := inputs(t, name, 8, 200); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

// warmResponses runs a workload's warm-up pass against a fresh daemon
// and returns each request with the daemon's response.
func warmResponses(t *testing.T, name string) ([]*op, [][]byte) {
	t.Helper()
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	wl, _ := newWorkload(name, 3)
	var ops []*op
	var bodies [][]byte
	for _, o := range wl.warmup() {
		if err := o.encode(); err != nil {
			t.Fatal(err)
		}
		status, body, err := d.send(o)
		var tl tally
		tl.record(o, status, body, err)
		if tl.failed != 0 {
			t.Fatalf("%s: %v", o.label, tl.firstErr)
		}
		ops = append(ops, o)
		bodies = append(bodies, body)
	}
	return ops, bodies
}

// corrupt alters one answer-bearing field of a response.
func corrupt(t *testing.T, endpoint string, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	switch endpoint {
	case "solve":
		models := m["models"].([]any)
		if len(models) == 0 {
			m["models"], m["count"] = []any{"p(x)"}, 1
		} else {
			m["models"], m["count"] = models[1:], len(models)-1
		}
	case "entails":
		m["entailed"] = !m["entailed"].(bool)
	case "consistent":
		m["consistent"] = !m["consistent"].(bool)
	case "answers":
		m["tuples"] = append(m["tuples"].([]any), []any{"intruder"})
	case "batch":
		r := m["results"].([]any)[0].(map[string]any)
		e, _ := r["entailed"].(bool)
		r["entailed"] = !e
	case "db":
		m["facts"] = m["facts"].(float64) + 1
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCorruptedResponsesAreCaught(t *testing.T) {
	for _, name := range []string{"hot-mix", "fresh-db"} {
		ops, bodies := warmResponses(t, name)
		for i, o := range ops {
			handle := o.handle
			if err := o.check(corrupt(t, o.endpoint, bodies[i])); err == nil {
				t.Errorf("%s/%s: corrupted %s response passed its check", name, o.label, o.endpoint)
			}
			o.handle = handle
		}
	}
}

// engineCounts replays a workload's warm-up pass and a fixed stream
// through the tracer and sums the engine's effort counters.
func engineCounts(t *testing.T, name string, n int) ntgd.Stats {
	t.Helper()
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	wl, _ := newWorkload(name, 5)
	tr := newTracer()
	var tl tally
	if _, err := warm(d, wl, &tl, tr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		o := wl.next()
		if err := o.encode(); err != nil {
			t.Fatal(err)
		}
		status, body, err := d.send(o)
		tl.record(o, status, body, err)
		if err := tr.replay(o, 0); err != nil {
			t.Fatal(err)
		}
	}
	if tl.failed != 0 {
		t.Fatal(tl.firstErr)
	}
	var sum ntgd.Stats
	for _, s := range tr.stats {
		sum.Add(s)
	}
	return sum
}

func TestEngineCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the hard-search programs twice")
	}
	a, b := engineCounts(t, "hard-search", 9), engineCounts(t, "hard-search", 9)
	if a.Nodes != b.Nodes || a.StabilityChecks != b.StabilityChecks || a.Conflicts != b.Conflicts {
		t.Fatalf("engine counts differ between runs: %+v vs %+v", a, b)
	}
	if a.Nodes == 0 || a.StabilityChecks == 0 || a.Conflicts == 0 {
		t.Fatalf("hard-search exercised no search, stability or ASP work: %+v", a)
	}
}

func TestReferences(t *testing.T) {
	// A triangle has 3! proper 3-colourings and no proper 2-colouring.
	tri := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	if got := properColorings(3, 3, tri); got != 6 {
		t.Errorf("triangle 3-colourings = %d, want 6", got)
	}
	if got := properColorings(3, 2, tri); got != 0 {
		t.Errorf("triangle 2-colourings = %d, want 0", got)
	}
	// ∃x∀y (x∧y) ∨ (x∧¬y) is true (x = 1); with ¬x in the second term
	// it is false.
	sat := [][3]qbfLit{{ex(0, false), fa(0, false), fa(0, false)}, {ex(0, false), fa(0, true), fa(0, true)}}
	unsat := [][3]qbfLit{{ex(0, false), fa(0, false), fa(0, false)}, {ex(0, true), fa(0, true), fa(0, true)}}
	if !qbfTrue(1, 1, sat) || qbfTrue(1, 1, unsat) {
		t.Error("2-QBF brute force disagrees with the hand verdicts")
	}
	// Transitive closure of a 3-chain, then the pairs it misses.
	a := func(p string, args ...string) dlAtom { return dlAtom{pred: p, args: args} }
	facts := []dlAtom{a("e", "a", "b"), a("e", "b", "c"), a("n", "a"), a("n", "c")}
	strata := [][]dlRule{
		{{head: a("r", "X", "Y"), pos: []dlAtom{a("e", "X", "Y")}}, {head: a("r", "X", "Z"), pos: []dlAtom{a("r", "X", "Y"), a("e", "Y", "Z")}}},
		{{head: a("u", "X", "Y"), pos: []dlAtom{a("n", "X"), a("n", "Y")}, neg: []dlAtom{a("r", "X", "Y")}}},
	}
	model := naiveModel(facts, strata)
	if err := sameTuples(answerTuples(model, "r"), [][]string{{"a", "b"}, {"a", "c"}, {"b", "c"}}); err != nil {
		t.Error("closure:", err)
	}
	if err := sameTuples(answerTuples(model, "u"), [][]string{{"a", "a"}, {"c", "a"}, {"c", "c"}}); err != nil {
		t.Error("negation:", err)
	}
}

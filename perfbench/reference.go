package main

import (
	"fmt"
	"sort"
	"strings"
)

// The references below are computed by the benchmark itself, never by
// the engine under test: closed-form counts, brute force over tiny
// search spaces, and a naive datalog evaluator. Each one answers the
// question a workload asks the daemon, so a response is checked
// against an answer that shares no code with ntgd.

// properColorings counts the proper k-colourings of a graph by brute
// force over every assignment of k colours to n vertices.
func properColorings(n, k int, edges [][2]int) int {
	col := make([]int, n)
	count := 0
	var assign func(v int)
	assign = func(v int) {
		if v == n {
			for _, e := range edges {
				if col[e[0]] == col[e[1]] {
					return
				}
			}
			count++
			return
		}
		for c := 0; c < k; c++ {
			col[v] = c
			assign(v + 1)
		}
	}
	assign(0)
	return count
}

// labeledEdge is an edge of a certain-colourability instance that is
// active when its Boolean variable takes the edge's polarity.
type labeledEdge struct {
	u, w, v int
	neg     bool
}

// someAssignmentUncolorable reports whether some assignment to the
// Boolean variables leaves an active subgraph that has no proper
// k-colouring — the brave verdict of the saturation encoding's bad.
func someAssignmentUncolorable(nVertices, nVars, k int, edges []labeledEdge) bool {
	for a := 0; a < 1<<nVars; a++ {
		var active [][2]int
		for _, e := range edges {
			if (a>>e.v&1 == 1) != e.neg {
				active = append(active, [2]int{e.u, e.w})
			}
		}
		if properColorings(nVertices, k, active) == 0 {
			return true
		}
	}
	return false
}

// qbfLit is a literal of a 2-QBF term; exists selects the block of its
// variable.
type qbfLit struct {
	exists bool
	v      int
	neg    bool
}

// qbfTrue decides ∃X∀Y ⋁terms by brute force: some assignment to the
// existential block makes every universal assignment satisfy a term.
func qbfTrue(nExists, nForall int, terms [][3]qbfLit) bool {
	for x := 0; x < 1<<nExists; x++ {
		all := true
		for y := 0; y < 1<<nForall && all; y++ {
			sat := false
			for _, t := range terms {
				ok := true
				for _, l := range t {
					bits := y
					if l.exists {
						bits = x
					}
					if (bits>>l.v&1 == 1) == l.neg {
						ok = false
						break
					}
				}
				if ok {
					sat = true
					break
				}
			}
			all = sat
		}
		if all {
			return true
		}
	}
	return false
}

// dlAtom is an atom of the naive datalog evaluator: a predicate and
// argument names, where an upper-case initial marks a variable.
type dlAtom struct {
	pred string
	args []string
}

func (a dlAtom) String() string {
	if len(a.args) == 0 {
		return a.pred
	}
	return a.pred + "(" + strings.Join(a.args, ",") + ")"
}

// dlRule is a safe datalog rule with stratified negation: every
// variable of head and neg occurs in pos.
type dlRule struct {
	head dlAtom
	pos  []dlAtom
	neg  []dlAtom
}

// source renders the rule in ntgd's surface syntax.
func (r dlRule) source() string {
	var body []string
	for _, a := range r.pos {
		body = append(body, a.String())
	}
	for _, a := range r.neg {
		body = append(body, "not "+a.String())
	}
	return strings.Join(body, ", ") + " -> " + r.head.String() + "."
}

func isVar(s string) bool { return s != "" && s[0] >= 'A' && s[0] <= 'Z' }

// naiveModel computes the perfect model of a stratified datalog
// program by naive fixpoint iteration, stratum by stratum: strata[i]
// is evaluated to a fixpoint before strata[i+1] reads its negations.
// Facts are keyed by their rendering, which is also the rendering the
// daemon answers with.
func naiveModel(facts []dlAtom, strata [][]dlRule) map[string][]dlAtom {
	db := &dlDB{rel: map[string][]dlAtom{}, idx: map[string][]dlAtom{}, seen: map[string]bool{}}
	for _, f := range facts {
		db.add(f)
	}
	for _, rules := range strata {
		for changed := true; changed; {
			changed = false
			for _, r := range rules {
				for _, h := range db.fire(r) {
					if db.add(h) {
						changed = true
					}
				}
			}
		}
	}
	return db.rel
}

// dlDB is the evaluator's fact set, indexed by predicate and by
// (predicate, argument position, value).
type dlDB struct {
	rel  map[string][]dlAtom
	idx  map[string][]dlAtom
	seen map[string]bool
}

func idxKey(pred string, pos int, val string) string {
	return fmt.Sprintf("%s\x00%d\x00%s", pred, pos, val)
}

func (db *dlDB) add(a dlAtom) bool {
	k := a.String()
	if db.seen[k] {
		return false
	}
	db.seen[k] = true
	db.rel[a.pred] = append(db.rel[a.pred], a)
	for i, v := range a.args {
		key := idxKey(a.pred, i, v)
		db.idx[key] = append(db.idx[key], a)
	}
	return true
}

// fire returns the head instances of every match of r's body.
func (db *dlDB) fire(r dlRule) []dlAtom {
	var out []dlAtom
	var match func(i int, sub map[string]string)
	match = func(i int, sub map[string]string) {
		if i == len(r.pos) {
			for _, n := range r.neg {
				if db.seen[ground(n, sub).String()] {
					return
				}
			}
			out = append(out, ground(r.head, sub))
			return
		}
		pat := r.pos[i]
		cands := db.rel[pat.pred]
		for j, t := range pat.args {
			if v, ok := sub[t]; ok || !isVar(t) {
				if !ok {
					v = t
				}
				cands = db.idx[idxKey(pat.pred, j, v)]
				break
			}
		}
		for _, f := range cands {
			if len(f.args) != len(pat.args) {
				continue
			}
			var bound []string
			ok := true
			for j, t := range pat.args {
				if !isVar(t) {
					ok = t == f.args[j]
				} else if v, has := sub[t]; has {
					ok = v == f.args[j]
				} else {
					sub[t] = f.args[j]
					bound = append(bound, t)
				}
				if !ok {
					break
				}
			}
			if ok {
				match(i+1, sub)
			}
			for _, t := range bound {
				delete(sub, t)
			}
		}
	}
	match(0, map[string]string{})
	return out
}

func ground(a dlAtom, sub map[string]string) dlAtom {
	g := dlAtom{pred: a.pred, args: make([]string, len(a.args))}
	for i, t := range a.args {
		if isVar(t) {
			g.args[i] = sub[t]
		} else {
			g.args[i] = t
		}
	}
	return g
}

// answerTuples projects the facts of pred onto sorted, deduplicated
// tuples in the daemon's wire form.
func answerTuples(model map[string][]dlAtom, pred string) [][]string {
	var out [][]string
	seen := map[string]bool{}
	for _, f := range model[pred] {
		k := strings.Join(f.args, "\x00")
		if !seen[k] {
			seen[k] = true
			out = append(out, f.args)
		}
	}
	sortTuples(out)
	return out
}

func sortTuples(ts [][]string) {
	sort.Slice(ts, func(i, j int) bool {
		return strings.Join(ts[i], "\x00") < strings.Join(ts[j], "\x00")
	})
}

// splitAtoms splits a canonical model rendering ("p(a,b), q") into its
// atoms, splitting only on commas outside parentheses.
func splitAtoms(model string) []string {
	if model == "" {
		return nil
	}
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(model); i++ {
		switch model[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(model[start:i]))
				start = i + 1
			}
		}
	}
	return append(out, strings.TrimSpace(model[start:]))
}

// sameTuples compares two answer sets irrespective of order.
func sameTuples(got, want [][]string) error {
	g := append([][]string(nil), got...)
	sortTuples(g)
	if len(g) != len(want) {
		return fmt.Errorf("%d answer tuples, want %d", len(g), len(want))
	}
	for i := range g {
		if strings.Join(g[i], ",") != strings.Join(want[i], ",") {
			return fmt.Errorf("answer tuple %v, want %v", g[i], want[i])
		}
	}
	return nil
}

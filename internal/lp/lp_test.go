package lp_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ntgd/internal/core"
	"ntgd/internal/engine"
	"ntgd/internal/ground"
	"ntgd/internal/logic"
	"ntgd/internal/lp"
	"ntgd/internal/parser"
)

// lpModels runs the LP pipeline the way the Solver does: compile once
// (Skolemize + ground), then enumerate through the engine contract.
func lpModels(db *logic.FactStore, rules []*logic.Rule) (*engine.Result, error) {
	c, err := lp.Compile(db, rules, lp.Options{})
	if err != nil {
		return nil, err
	}
	return engine.CollectModels(context.Background(), c, engine.Params{}, 0)
}

const fatherProgram = `
person(alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
`

// TestLPSkolemizedFatherExample reproduces Section 1's discussion: the
// LP approach yields exactly one stable model, containing the Skolem
// witness, and therefore (wrongly) entails ¬hasFather(alice, bob).
func TestLPSkolemizedFatherExample(t *testing.T) {
	prog := parser.MustParse(fatherProgram)
	db := prog.Database()
	res, err := lpModels(db, prog.Rules)
	if err != nil {
		t.Fatalf("lp: %v", err)
	}
	if len(res.Models) != 1 {
		t.Fatalf("LP approach: expected exactly one stable model, got %d", len(res.Models))
	}
	m := res.Models[0]
	if m.CountPred("hasFather") != 1 {
		t.Fatalf("expected a single hasFather atom, got %s", m.CanonicalString())
	}
	fa := m.ByPred("hasFather")[0]
	if fa.Args[1].Kind != logic.Func {
		t.Fatalf("LP witness must be a Skolem term, got %s", fa)
	}

	q := parser.MustParse("?- person(alice), not hasFather(alice,bob).").Queries[0]
	c, err := lp.Compile(db, prog.Rules, lp.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	v, err := engine.CautiousEntails(context.Background(), c, engine.Params{}, q)
	if err != nil {
		t.Fatalf("CautiousEntails: %v", err)
	}
	if !v.Entailed {
		t.Fatalf("the LP approach should (unintendedly) entail ¬hasFather(alice,bob)")
	}
}

// TestTheorem1AgreementHandPicked: on programs already Skolemized (or
// existential-free), SMS_LP = SMS_SO. We compare model sets produced
// by both pipelines on a few fixed programs.
func TestTheorem1AgreementHandPicked(t *testing.T) {
	programs := []string{
		// Choice between two atoms via cyclic negation.
		`a(1). a(X), not q(X) -> p(X). a(X), not p(X) -> q(X).`,
		// Stratified negation.
		`b(1). b(2). e(1,2). b(X), not e(X,X) -> loopfree(X).`,
		// Even loop: two stable models.
		`s. s, not p -> q. s, not q -> p.`,
		// Odd loop: no stable model.
		`s. s, not p -> p.`,
		// Positive recursion: unsupported atoms stay out.
		`r(1,2). r(2,3). r(X,Y) -> t(X,Y). t(X,Y), r(Y,Z) -> t(X,Z).`,
		// Skolemized existential (function term in the head).
		`person(alice). person(X) -> hasFather(X, f(X)). hasFather(X,Y) -> sameAs(Y,Y).`,
	}
	for i, src := range programs {
		src := src
		t.Run(fmt.Sprintf("program%d", i), func(t *testing.T) {
			compareLPvsSO(t, src)
		})
	}
}

// compareLPvsSO checks SMS_LP(Π) == SMS_SO(Π) as sets of atom sets.
func compareLPvsSO(t *testing.T, src string) {
	t.Helper()
	prog := parser.MustParse(src)
	if !ground.IsSkolemized(prog.Rules) {
		t.Fatalf("Theorem 1 comparison needs a Skolemized program")
	}
	db := prog.Database()

	lpRes, err := lpModels(db, prog.Rules)
	if err != nil {
		t.Fatalf("lp: %v", err)
	}
	soRes, err := core.StableModels(db, prog.Rules, core.Options{})
	if err != nil {
		t.Fatalf("so: %v", err)
	}

	lpSet := map[string]bool{}
	for _, m := range lpRes.Models {
		lpSet[m.CanonicalString()] = true
	}
	soSet := map[string]bool{}
	for _, m := range soRes.Models {
		soSet[m.CanonicalString()] = true
	}
	if len(lpSet) != len(soSet) {
		t.Fatalf("Theorem 1 violated on %q:\n  LP (%d): %v\n  SO (%d): %v", src, len(lpSet), keys(lpSet), len(soSet), keys(soSet))
	}
	for k := range lpSet {
		if !soSet[k] {
			t.Fatalf("Theorem 1 violated on %q: LP model %s missing from SO", src, k)
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTheorem1AgreementRandom compares the two pipelines on random
// existential-free normal programs (the class where both semantics are
// defined and must coincide).
func TestTheorem1AgreementRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("random agreement is slow")
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 25; i++ {
		src := randomNormalProgram(rng)
		t.Run(fmt.Sprintf("rand%d", i), func(t *testing.T) {
			compareLPvsSO(t, src)
		})
	}
}

// randomNormalProgram generates a small existential-free normal
// program over unary predicates p0..p3 and constants c0..c2.
func randomNormalProgram(rng *rand.Rand) string {
	preds := []string{"p0", "p1", "p2", "p3"}
	consts := []string{"c0", "c1", "c2"}
	var out string
	nFacts := 1 + rng.Intn(3)
	for i := 0; i < nFacts; i++ {
		out += fmt.Sprintf("%s(%s).\n", preds[rng.Intn(len(preds))], consts[rng.Intn(len(consts))])
	}
	nRules := 1 + rng.Intn(4)
	for i := 0; i < nRules; i++ {
		// body: one positive literal with variable X, optionally one
		// more positive and one negative (all over X for safety).
		body := fmt.Sprintf("%s(X)", preds[rng.Intn(len(preds))])
		if rng.Intn(2) == 0 {
			body += fmt.Sprintf(", %s(X)", preds[rng.Intn(len(preds))])
		}
		if rng.Intn(2) == 0 {
			body += fmt.Sprintf(", not %s(X)", preds[rng.Intn(len(preds))])
		}
		head := fmt.Sprintf("%s(X)", preds[rng.Intn(len(preds))])
		out += fmt.Sprintf("%s -> %s.\n", body, head)
	}
	return out
}

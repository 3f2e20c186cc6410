package baget_test

import (
	"context"
	"testing"

	"ntgd/internal/baget"
	"ntgd/internal/core"
	"ntgd/internal/engine"
	"ntgd/internal/logic"
	"ntgd/internal/parser"
)

// compile builds the operational engine the Solver runs for
// Semantics Operational.
func compile(t *testing.T, db *logic.FactStore, rules []*logic.Rule) *baget.Compiled {
	t.Helper()
	c, err := baget.Compile(db, rules, core.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

const fatherProgram = `
person(alice).
person(X) -> hasFather(X,Y).
hasFather(X,Y) -> sameAs(Y,Y).
hasFather(X,Y), hasFather(X,Z), not sameAs(Y,Z) -> abnormal(X).
`

// TestOperationalSemanticsFreshNullsOnly: under [3] the chase always
// invents a fresh null, so the unique stable model (up to null
// renaming) witnesses the father with a null, never with alice or bob.
func TestOperationalSemanticsFreshNullsOnly(t *testing.T) {
	prog := parser.MustParse(fatherProgram)
	db := prog.Database()
	res, err := engine.CollectModels(context.Background(), compile(t, db, prog.Rules), engine.Params{}, 0)
	if err != nil {
		t.Fatalf("CollectModels: %v", err)
	}
	if len(res.Models) != 1 {
		t.Fatalf("expected exactly one operational stable model, got %d", len(res.Models))
	}
	fa := res.Models[0].ByPred("hasFather")[0]
	if fa.Args[1].Kind != logic.Null {
		t.Fatalf("the witness must be a fresh null, got %s", fa)
	}
}

// TestSection1Criticism reproduces the paper's criticism: under [3],
// (D,Σ) |= ¬hasFather(alice,bob) — the unintended answer — while the
// SO semantics refutes it.
func TestSection1Criticism(t *testing.T) {
	prog := parser.MustParse(fatherProgram + "?- person(alice), not hasFather(alice,bob).")
	db := prog.Database()
	q := prog.Queries[0]

	op, err := engine.CautiousEntails(context.Background(), compile(t, db, prog.Rules), engine.Params{}, q)
	if err != nil {
		t.Fatalf("baget: %v", err)
	}
	if !op.Entailed {
		t.Fatalf("the operational semantics should (wrongly) entail the query")
	}

	so, err := core.CautiousEntails(db, prog.Rules, q, core.Options{})
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	if so.Entailed {
		t.Fatalf("the SO semantics must not entail the query")
	}
}

// TestOperationalModelsAreSOStable: every model of the operational
// semantics is also a stable model under the SO semantics (fresh-null
// witnesses are a special case of arbitrary witnesses).
func TestOperationalModelsAreSOStable(t *testing.T) {
	prog := parser.MustParse(fatherProgram)
	db := prog.Database()
	res, err := engine.CollectModels(context.Background(), compile(t, db, prog.Rules), engine.Params{}, 0)
	if err != nil {
		t.Fatalf("CollectModels: %v", err)
	}
	for _, m := range res.Models {
		if !core.IsStableModel(db, prog.Rules, m) {
			t.Fatalf("operational model is not SO-stable: %s", m.CanonicalString())
		}
	}
}

// TestBraveAgreesOnNegationFreeGround: on an existential-free program
// both semantics coincide.
func TestBraveAgreesOnNegationFreeGround(t *testing.T) {
	prog := parser.MustParse(`
a(1).
a(X), not q(X) -> p(X).
a(X), not p(X) -> q(X).
?- p(1).
`)
	db := prog.Database()
	q := prog.Queries[0]
	op, err := engine.BraveEntails(context.Background(), compile(t, db, prog.Rules), engine.Params{}, q)
	if err != nil {
		t.Fatalf("baget: %v", err)
	}
	so, err := core.BraveEntails(db, prog.Rules, q, core.Options{})
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	if op.Entailed != so.Entailed {
		t.Fatalf("existential-free programs: semantics must agree (op=%v so=%v)", op.Entailed, so.Entailed)
	}
}

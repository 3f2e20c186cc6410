// Package baget implements the operational, chase-based stable model
// semantics of Baget, Garreau, Mugnier and Rocher ("Revisiting chase
// termination for existential rules and their extension to
// nonmonotonic negation", NMR 2014), reference [3] of the paper: a
// (possibly infinite) set of atoms M is a stable model of (D ∧ Σ) if
// it is obtained by a complete and sound chase of Σ⁺ from D — every
// applicable unblocked TGD is eventually applied, no applied TGD has a
// negative literal in M, and, crucially, every existential variable is
// witnessed by a freshly invented null, never by a constant.
//
// That last point is exactly what the paper criticizes (Section 1):
// with fresh-only witnesses there is no stable model containing
// hasFather(alice, bob), so ¬hasFather(alice, bob) is (unexpectedly)
// entailed. The implementation simply runs the internal/core search
// with WitnessFreshOnly, which realizes this semantics.
package baget

import (
	"context"

	"ntgd/internal/core"
	"ntgd/internal/engine"
	"ntgd/internal/logic"
)

// Compiled is the operational semantics compiled for one program: the
// SO search engine fixed to the fresh-only witness policy. It
// implements the engine.Engine interface.
type Compiled struct {
	c *core.Compiled
}

// Compile validates the rules and precomputes the search metadata,
// forcing the fresh-only witness policy of [3].
func Compile(db *logic.FactStore, rules []*logic.Rule, opt core.Options) (*Compiled, error) {
	opt.WitnessPolicy = core.WitnessFreshOnly
	c, err := core.Compile(db, rules, opt)
	if err != nil {
		return nil, err
	}
	return &Compiled{c: c}, nil
}

// Semantics implements engine.Engine.
func (c *Compiled) Semantics() string { return "operational" }

// Enumerate implements engine.Engine.
func (c *Compiled) Enumerate(ctx context.Context, p engine.Params, visit func(*logic.FactStore) bool) (engine.Stats, bool, error) {
	return c.c.Enumerate(ctx, p, visit)
}

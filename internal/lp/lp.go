// Package lp implements the classical "LP approach" to stable model
// semantics for NTGDs (Section 3.1): existential head variables are
// eliminated by Skolemization, the resulting normal program is
// grounded over its derivable Herbrand base, and the standard stable
// model semantics for (ground) normal logic programs is applied.
//
// The paper's Theorem 1 shows that on Skolemized programs this
// coincides with the new SO-based semantics of internal/core, while
// Examples 2 and 4 show that applying it to NTGDs with genuine
// existentials loses the intended models (the Skolem term f(alice) can
// never equal bob). Both facts are exercised by the test suite.
package lp

import (
	"context"
	"errors"

	"ntgd/internal/asp"
	"ntgd/internal/engine"
	"ntgd/internal/ground"
	"ntgd/internal/logic"
)

// Options configures the pipeline.
type Options struct {
	// Ground bounds the grounding phase.
	Ground ground.Options
	// Solve configures stable model enumeration. Its MaxModels is
	// ignored: enumeration is visitor-driven (see Enumerate).
	Solve asp.SolveOptions
}

// Compiled is the LP pipeline compiled for one program: rules
// Skolemized and the resulting normal program grounded over its
// derivable Herbrand base, once. Enumeration runs replay the ground
// program through the ASP solver without re-grounding. Compiled
// implements the engine.Engine interface.
type Compiled struct {
	g     *ground.Grounding
	solve asp.SolveOptions
}

// Compile Skolemizes and grounds the program. The grounding (and with
// it the witness space — Skolem terms only) is fixed here; later
// per-query constants cannot change it, which is exactly the
// Skolemization weakness the paper's Examples 2 and 4 exhibit.
func Compile(db *logic.FactStore, rules []*logic.Rule, opt Options) (*Compiled, error) {
	sk := ground.Skolemize(rules)
	g, err := ground.Ground(db, sk, opt.Ground)
	if err != nil {
		return nil, err
	}
	if err := g.Prog.Validate(); err != nil {
		return nil, err
	}
	solveOpt := opt.Solve
	solveOpt.SeedWFS = true
	solveOpt.MaxModels = 0         // enumeration is visitor-driven
	solveOpt.SkipValidation = true // validated once just above
	return &Compiled{g: g, solve: solveOpt}, nil
}

// Semantics implements engine.Engine.
func (c *Compiled) Semantics() string { return "lp" }

// Grounding exposes the intermediate ground program.
func (c *Compiled) Grounding() *ground.Grounding { return c.g }

// Enumerate streams the LP-stable models over the original vocabulary
// (atoms may contain Skolem function terms), implementing
// engine.Engine. Params.ExtraConstants is ignored: the witness space
// was fixed by Skolemization at compile time.
func (c *Compiled) Enumerate(ctx context.Context, _ engine.Params, visit func(*logic.FactStore) bool) (engine.Stats, bool, error) {
	var emitted int64
	stats, err := asp.SolveCtx(ctx, c.g.Prog, c.solve, func(m asp.Model) bool {
		emitted++
		return visit(c.g.ModelStore(m))
	})
	es := engine.Stats{
		Nodes:           stats.Nodes,
		Conflicts:       stats.Conflicts,
		StabilityChecks: stats.Checks,
		ModelsEmitted:   emitted,
	}
	exhausted := false
	if errors.Is(err, asp.ErrBudget) {
		err = engine.ErrBudget
		exhausted = true
	} else if err != nil && ctx.Err() != nil {
		exhausted = true
	}
	return es, exhausted, err
}

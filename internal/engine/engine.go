// Package engine defines the uniform evaluation interface behind the
// public ntgd.Solver: one Engine contract that the three stable model
// semantics of the paper — the SO-based semantics (internal/core), the
// Skolemized-LP approach (internal/lp), and the operational chase
// semantics of Baget et al. (internal/baget) — all implement. A
// compiled engine holds every artifact derivable from the program
// alone (validation, budgets, Skolemization, grounding), so repeated
// enumeration and query answering amortize that work, and every run is
// context-aware: cancellation or a deadline aborts mid-search with the
// partial Stats accumulated so far.
//
// The generic query-answering algorithms (cautious/brave entailment,
// n-ary answers, consistency) live here too, written once against the
// Engine interface instead of per semantics.
package engine

import (
	"context"
	"errors"

	"ntgd/internal/logic"
	"ntgd/ntgdapi"
)

// ErrBudget is reported (alongside partial results) when an engine's
// search budget was hit before the enumeration completed. All three
// engines normalize their internal budget errors to this value.
var ErrBudget = errors.New("ntgd: search budget exhausted; enumeration may be incomplete")

// Params carries the per-call knobs of an enumeration run. Everything
// else (budgets, witness policy, grounding bounds) is fixed when the
// engine is compiled.
type Params struct {
	// ExtraConstants extends the witness pool for this run, typically
	// with the constants of the query being answered. Engines whose
	// witness space is fixed at compile time (the LP pipeline) ignore
	// it.
	ExtraConstants []logic.Term
	// Workers overrides the compiled worker-pool size of the stable
	// model search for this run (see core.Options.Workers): 0 keeps
	// the compiled setting, 1 forces the sequential search, n > 1
	// bounds the pool at n. Engines without a parallel search (the LP
	// pipeline) ignore it.
	Workers int
}

// Stats is the uniform search-effort report shared by all engines.
// It is the wire type itself, so hosts serving effort reports (the
// ntgdd daemon) put a run's Stats into a response body unconverted.
type Stats = ntgdapi.Stats

// Engine is a compiled program under one stable model semantics. An
// Engine is safe for sequential reuse: enumeration runs share the
// compiled artifacts but mutate nothing visible across calls.
type Engine interface {
	// Semantics names the semantics ("so", "lp", "operational").
	Semantics() string
	// Enumerate streams the stable models to visit (return false to
	// stop early, which is not an error). It reports the run's effort,
	// whether the enumeration is possibly incomplete (a budget was hit
	// or ctx was cancelled), and the terminal error: nil, ErrBudget, or
	// ctx.Err(). Each delivered store is owned by the caller.
	Enumerate(ctx context.Context, p Params, visit func(*logic.FactStore) bool) (Stats, bool, error)
}

// Result holds a collected enumeration outcome.
type Result struct {
	Models []*logic.FactStore
	Stats  Stats
	// Exhausted is true when a budget was hit or the context was
	// cancelled, in which case the enumeration may be incomplete
	// (additional stable models may exist).
	Exhausted bool
}

// CollectModels materializes up to maxModels stable models (0 = all).
// On budget exhaustion or cancellation the partial Result is returned
// alongside the error.
func CollectModels(ctx context.Context, e Engine, p Params, maxModels int) (*Result, error) {
	res := &Result{}
	stats, exhausted, err := e.Enumerate(ctx, p, func(m *logic.FactStore) bool {
		res.Models = append(res.Models, m)
		return maxModels == 0 || len(res.Models) < maxModels
	})
	res.Stats = stats
	res.Exhausted = exhausted
	return res, err
}

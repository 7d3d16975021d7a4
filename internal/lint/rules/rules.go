// Package rules holds the repo-specific arestlint analyzers: machine
// checks for the determinism contract of DESIGN.md §7 (schedule-
// independent pipeline output) and the properties no single test run
// reliably shows. The framework they run on is internal/lint; the CLI is
// cmd/arestlint.
//
// The analyzers and the prose rule each one pins:
//
//	nowallclock   §7/§8 — determinism-contract packages never read the
//	              wall clock directly; timing flows through the
//	              injectable obs clock only.
//	noglobalrand  §7.1 — no randomness from the process-global
//	              math/rand source and no wall-clock seeding; every
//	              draw is hash-derived or seeded from config.
//	maporder      §7.2 — no map iteration order may reach output:
//	              ranges that append to slices or write to
//	              writers/hashes/encoders must sort.
//	noerrdrop     §12 — the probe and alias measurement layers never
//	              discard an error return: a swallowed transport error
//	              silently becomes a wrong measurement.
//	ctxplumb      §14 — exported Run*/Measure*/Detect* entry points in
//	              internal/exp take context.Context first, and worker
//	              claim loops in internal/par observe cancellation.
//
// By-value lock and atomic copies (§7) are go vet's copylocks check, which
// make check and CI already run; TestNoLockCopy and
// TestLockCopyInjectionCaught pin that it covers them. Nil-safe obs
// instruments (§8) and the completeness of the exp.Agg fold (§13) are
// runtime properties, checked by TestObsNilSafety in internal/obs and
// TestAggFoldComplete in internal/exp, and the zero-allocation wire path
// (§11) is held by the TestAllocBudget* scenario tables.
package rules

import "arest/internal/lint"

// ContractPackages are the determinism-contract packages (DESIGN.md §7):
// everything between world generation and detection verdicts, where
// parallel output must be bit-identical to sequential. nowallclock audits
// exactly these.
var ContractPackages = []string{
	"arest/internal/netsim",
	"arest/internal/probe",
	"arest/internal/alias",
	"arest/internal/fingerprint",
	"arest/internal/core",
	"arest/internal/exp",
	"arest/internal/archive",
}

// CtxEntryPackages are the pipeline entry-point packages (DESIGN.md §14):
// their exported Run*/Measure*/Detect* functions are campaign lifecycle
// boundaries and must accept the caller's context.
var CtxEntryPackages = []string{"arest/internal/exp"}

// CtxPoolPackages are the worker-pool packages whose go-spawned claim
// loops must observe cancellation.
var CtxPoolPackages = []string{"arest/internal/par"}

// All returns the production analyzer set, configured for this module —
// what cmd/arestlint runs.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		NoWallClock(ContractPackages),
		NoGlobalRand(),
		MapOrder(),
		NoErrDrop(ErrAuditPackages),
		CtxPlumb(CtxEntryPackages, CtxPoolPackages),
	}
}

package bench

import "deadmembers/internal/source"

// The large corpus: synthesized programs whose dynamic size (executed
// statements) is 10–50× the paper-calibrated corpus. The paper's Table 2
// reproduction does not need them; they exist to exercise execution-engine
// throughput at a scale the tree-walking interpreter cannot reach in
// reasonable wall-clock time, which is what the bytecode VM is for.
// Heap shapes stay modest — the scale knob is Spec.ComputeRounds, which
// multiplies per-iteration scalar work without touching the ledger — so
// both engines can run every large benchmark to completion and be
// compared for byte-identity as well as steps/sec.
//
// They are deliberately not part of All(): Table 1/2 reproduction,
// ground-truth sweeps, and the differential corpus tests iterate the
// paper corpus; the large corpus is reached through Large() by the
// benchmarking targets (paperbench -engines, make bench-vm).
var largeSpecs = []Spec{
	{
		Name:        "sched-xl",
		Description: "sched scaled ~30×: struct-heavy allocation plus a scalar compute kernel",
		PaperLOC:    5712, Classes: 24, UsedClasses: 20, Members: 80, DeadPercent: 3.0,
		Allocations: 60000, DynDeadPercent: 11.6, RetainMod: 1,
		DeadHeavyClasses: 1, StructFraction: 0.8, ComputeRounds: 40, Seed: 0x736368,
	},
	{
		Name:        "lcom-xl",
		Description: "lcom scaled ~25×: churn-heavy allocation with delete flavour and compute",
		PaperLOC:    17278, Classes: 72, UsedClasses: 58, Members: 300, DeadPercent: 9.8,
		Allocations: 50000, DynDeadPercent: 10.6, RetainMod: 50,
		DeadHeavyClasses: 8, DeleteFlavor: true, ComputeRounds: 35, Seed: 0x6c636f6d,
	},
	{
		Name:        "jikes-xl",
		Description: "jikes scaled ~20×: wide class hierarchy under a compute-dominated driver",
		PaperLOC:    58296, Classes: 268, UsedClasses: 190, Members: 1052, DeadPercent: 11.9,
		Allocations: 40000, DynDeadPercent: 6.0, RetainMod: 40,
		DeadHeavyClasses: 22, DeleteFlavor: true, ComputeRounds: 35, Seed: 0x6a696b6573,
	},
}

// Large returns the large-corpus benchmarks. Generation is deterministic,
// like All(). The entries carry no PaperRow: they correspond to no paper
// benchmark and are excluded from paper-vs-measured comparison.
func Large() []*Benchmark {
	var out []*Benchmark
	for _, spec := range largeSpecs {
		src, ground := Generate(spec)
		out = append(out, &Benchmark{
			Name:        spec.Name,
			Description: spec.Description,
			Sources:     []source.Source{{Name: spec.Name + ".mcc", Text: src}},
			GroundTruth: ground,
		})
	}
	return out
}

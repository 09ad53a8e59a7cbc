package main

import (
	"strings"

	"deadmembers/internal/bench"
	"deadmembers/internal/engine"
)

// program is one benchmark input: a single MC++ source file and the dead
// members its generator planted. The hand-written programs (richards,
// deltablue) have none.
type program struct {
	src    engine.Source
	ground map[string]bool
}

func (p program) name() string { return strings.TrimSuffix(p.src.Name, ".mcc") }

// paperSpecs mirrors the generator settings of the nine synthesized
// programs in bench.All(), which bench keeps unexported. At seed 0 the
// corpus is taken from bench.All() itself; the benchmark's tests check
// that these specs regenerate it byte for byte, so a reseeded corpus
// keeps the paper calibration and changes only the generator's choices.
var paperSpecs = []bench.Spec{
	{Name: "jikes", Description: "Java source-to-bytecode compiler",
		PaperLOC: 58296, Classes: 268, UsedClasses: 190, Members: 1052, DeadPercent: 11.9,
		Allocations: 20000, DynDeadPercent: 6.0, RetainMod: 3,
		DeadHeavyClasses: 22, DeleteFlavor: true, Seed: 0x6a696b6573},
	{Name: "idl", Description: "SOM IDL compiler (heavy virtual inheritance)",
		PaperLOC: 30408, Classes: 150, UsedClasses: 105, Members: 600, DeadPercent: 6.1,
		Allocations: 8000, DynDeadPercent: 2.2, RetainMod: 1,
		DeadHeavyClasses: 9, Seed: 0x69646c},
	{Name: "npic", Description: "network protocol stack simulator",
		PaperLOC: 11670, Classes: 60, UsedClasses: 48, Members: 220, DeadPercent: 5.0,
		Allocations: 5000, DynDeadPercent: 4.9, RetainMod: 5,
		DeadHeavyClasses: 4, Seed: 0x6e706963},
	{Name: "lcom", Description: "compiler for the L hardware description language",
		PaperLOC: 17278, Classes: 72, UsedClasses: 58, Members: 300, DeadPercent: 9.8,
		Allocations: 15000, DynDeadPercent: 10.6, RetainMod: 2,
		DeadHeavyClasses: 8, DeleteFlavor: true, Seed: 0x6c636f6d},
	{Name: "taldict", Description: "dictionary application on a general collection library",
		PaperLOC: 3010, Classes: 55, UsedClasses: 27, Members: 190, DeadPercent: 27.3,
		Allocations: 120, DynDeadPercent: 0.5, RetainMod: 1,
		DeadHeavyClasses: 14, GhostFraction: 0.9, Seed: 0x74616c},
	{Name: "ixx", Description: "IDL parser generating C++ stubs",
		PaperLOC: 11157, Classes: 90, UsedClasses: 63, Members: 420, DeadPercent: 7.7,
		Allocations: 9000, DynDeadPercent: 5.4, RetainMod: 2,
		DeadHeavyClasses: 8, Seed: 0x697878},
	{Name: "simulate", Description: "discrete-event simulation on an exploration library",
		PaperLOC: 6672, Classes: 45, UsedClasses: 24, Members: 170, DeadPercent: 23.1,
		Allocations: 3000, DynDeadPercent: 0.1, RetainMod: 6,
		DeadHeavyClasses: 10, Seed: 0x73696d},
	{Name: "sched", Description: "RS/6000 instruction scheduler (struct-heavy, little inheritance)",
		PaperLOC: 5712, Classes: 24, UsedClasses: 20, Members: 80, DeadPercent: 3.0,
		Allocations: 30000, DynDeadPercent: 11.6, RetainMod: 1,
		DeadHeavyClasses: 1, StructFraction: 0.8, Seed: 0x736368},
	{Name: "hotwire", Description: "scriptable graphical presentation builder",
		PaperLOC: 5355, Classes: 37, UsedClasses: 21, Members: 166, DeadPercent: 18.6,
		Allocations: 200, DynDeadPercent: 2.6, RetainMod: 1,
		DeadHeavyClasses: 8, GhostFraction: 0.72, Seed: 0x686f74},
}

// splitmix is the SplitMix64 finalizer, used to derive generator seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// reseed derives a generator seed from a spec's own seed and the workload
// seed. Seed 0 keeps the spec's seed, so the default seed reproduces the
// repository's corpus exactly.
func reseed(base uint64, seed int64) uint64 {
	if seed == 0 {
		return base
	}
	return splitmix(base ^ splitmix(uint64(seed)))
}

// corpus returns the 11 paper-corpus programs in bench.All() order. Any
// seed but 0 re-seeds the nine synthesized programs; richards and
// deltablue are hand-written and never change.
func corpus(seed int64) []program {
	var out []program
	for i, b := range bench.All() {
		p := program{src: b.Sources[0], ground: b.GroundTruth}
		if seed != 0 && i < len(paperSpecs) {
			spec := paperSpecs[i]
			spec.Seed = reseed(spec.Seed, seed)
			text, ground := bench.Generate(spec)
			p = program{src: engine.Source{Name: spec.Name + ".mcc", Text: text}, ground: ground}
		}
		out = append(out, p)
	}
	return out
}

// largeSpec is the generator setting of a synthetic program with the
// given number of classes, in the shape of the repository's
// BenchmarkAnalysisScaling. At 3200 classes the source is about 1 MB.
func largeSpec(classes int, seed int64) bench.Spec {
	return bench.Spec{
		Name: "large", Description: "scaling probe",
		Classes: classes, UsedClasses: classes * 3 / 4,
		Members: classes * 4, DeadPercent: 10,
		Allocations: 10, RetainMod: 1, DeadHeavyClasses: 3,
		Seed: reseed(uint64(classes), seed),
	}
}

func largeProgram(classes int, seed int64) program {
	text, ground := bench.Generate(largeSpec(classes, seed))
	return program{src: engine.Source{Name: "large.mcc", Text: text}, ground: ground}
}

func sourceBytes(progs []program) int64 {
	var n int64
	for _, p := range progs {
		n += int64(len(p.src.Text))
	}
	return n
}

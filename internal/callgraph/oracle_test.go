package callgraph_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/frontend"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/types"
)

// generated caches compiled scaling programs by class count; the oracle
// and the scaling gate share the large ones.
var generated = map[int]*frontend.Result{}

// compileGenerated compiles a generated program of the given number of
// classes in the shape of BenchmarkAnalysisScaling (and of perfbench's
// large-program workload at 3200 classes).
func compileGenerated(t *testing.T, classes int) *frontend.Result {
	t.Helper()
	if r := generated[classes]; r != nil {
		return r
	}
	text, _ := bench.Generate(bench.Spec{
		Name: "scale", Description: "scaling probe",
		Classes: classes, UsedClasses: classes * 3 / 4,
		Members: classes * 4, DeadPercent: 10,
		Allocations: 10, RetainMod: 1, DeadHeavyClasses: 3,
		Seed: uint64(classes),
	})
	r := frontend.Compile(frontend.Source{Name: "scale.mcc", Text: text})
	if err := r.Err(); err != nil {
		t.Fatalf("%d classes: %v", classes, err)
	}
	generated[classes] = r
	return r
}

// libraryOverrideRoots designates every root class with virtual methods
// a library class and returns the user methods overriding one of their
// virtual methods: the extra roots deadmember passes for library classes.
func libraryOverrideRoots(prog *types.Program, h *hierarchy.Graph) []*types.Func {
	lib := map[*types.Class]bool{}
	for _, c := range prog.Classes {
		if len(c.Bases) == 0 && c.HasVirtualMethods() {
			lib[c] = true
		}
	}
	var roots []*types.Func
	for _, c := range prog.Classes {
		if lib[c] {
			continue
		}
		for _, m := range c.Methods {
			if !m.Virtual {
				continue
			}
			for _, bc := range h.AllBases(c) {
				if bm := bc.MethodByName(m.Name); lib[bc] && bm != nil && bm.Virtual {
					roots = append(roots, m)
					break
				}
			}
		}
	}
	return roots
}

// TestSlotsMatchReference checks dispatch-slot construction against the
// per-site reference builder: identical reachable, instantiated and edge
// sets under CHA and RTA, with and without library-override roots, on
// the corpus, the example and testdata programs, and generated programs.
func TestSlotsMatchReference(t *testing.T) {
	type input struct {
		name string
		r    *frontend.Result
	}
	var inputs []input
	for _, bm := range bench.All() {
		r := frontend.Compile(bm.Sources...)
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		inputs = append(inputs, input{bm.Name, r})
	}
	examples, _ := filepath.Glob("../../examples/mcc/*.mcc")
	fixtures, _ := filepath.Glob("../../testdata/*.mcc")
	files := append(examples, fixtures...)
	if len(examples) == 0 || len(fixtures) == 0 {
		t.Fatal("no example or testdata programs found")
	}
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r := frontend.Compile(frontend.Source{Name: filepath.Base(path), Text: string(text)})
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		inputs = append(inputs, input{path, r})
	}
	for _, n := range []int{100, 800, 3200} {
		inputs = append(inputs, input{fmt.Sprintf("generated-%d", n), compileGenerated(t, n)})
	}

	withRoots := 0
	for _, in := range inputs {
		prog, h := in.r.Program, in.r.Graph
		roots := libraryOverrideRoots(prog, h)
		if len(roots) > 0 {
			withRoots++
		}
		for _, mode := range []callgraph.Mode{callgraph.CHA, callgraph.RTA} {
			for _, extra := range [][]*types.Func{nil, roots} {
				opts := callgraph.Options{Mode: mode, ExtraRoots: extra}
				name := fmt.Sprintf("%s/%s/roots=%d", in.name, mode, len(extra))
				got := callgraph.Build(prog, h, opts)
				want, _ := refBuild(prog, h, opts)
				compareGraphs(t, name, got, want)
			}
		}
	}
	if withRoots < len(bench.All()) {
		t.Errorf("only %d programs have library-override roots; want at least the %d corpus programs", withRoots, len(bench.All()))
	}
}

func compareGraphs(t *testing.T, name string, got, want *callgraph.Graph) {
	t.Helper()
	if d := diffSets(got.Reachable, want.Reachable, (*types.Func).QualifiedName); d != "" {
		t.Errorf("%s: reachable sets differ: %s", name, d)
	}
	if d := diffSets(got.Instantiated, want.Instantiated, func(c *types.Class) string { return c.Name }); d != "" {
		t.Errorf("%s: instantiated sets differ: %s", name, d)
	}
	if d := diffSets(edgeSet(t, name, got), edgeSet(t, name, want), func(e [2]*types.Func) string {
		return e[0].QualifiedName() + " -> " + e[1].QualifiedName()
	}); d != "" {
		t.Errorf("%s: edge sets differ: %s", name, d)
	}
	funcs := got.ReachableFuncs()
	if len(funcs) != len(got.Reachable) {
		t.Errorf("%s: ReachableFuncs has %d functions, Reachable %d", name, len(funcs), len(got.Reachable))
	}
	if !sort.SliceIsSorted(funcs, func(i, j int) bool {
		return funcs[i].QualifiedName() < funcs[j].QualifiedName()
	}) {
		t.Errorf("%s: ReachableFuncs is not sorted by qualified name", name)
	}
}

// edgeSet flattens g's edges, failing on a duplicate callee.
func edgeSet(t *testing.T, name string, g *callgraph.Graph) map[[2]*types.Func]bool {
	t.Helper()
	set := map[[2]*types.Func]bool{}
	for from, tos := range g.Edges {
		for _, to := range tos {
			e := [2]*types.Func{from, to}
			if set[e] {
				t.Errorf("%s: duplicate edge %s -> %s", name, from.QualifiedName(), to.QualifiedName())
			}
			set[e] = true
		}
	}
	return set
}

// diffSets describes the first few elements in only one of got and want,
// or returns "" when they are equal.
func diffSets[K comparable](got, want map[K]bool, str func(K) string) string {
	var extra, missing []string
	for k := range got {
		if !want[k] {
			extra = append(extra, str(k))
		}
	}
	for k := range want {
		if !got[k] {
			missing = append(missing, str(k))
		}
	}
	if len(extra) == 0 && len(missing) == 0 {
		return ""
	}
	sort.Strings(extra)
	sort.Strings(missing)
	const show = 5
	if len(extra) > show {
		extra = extra[:show]
	}
	if len(missing) > show {
		missing = missing[:show]
	}
	return fmt.Sprintf("extra %v, missing %v", extra, missing)
}

// TestDispatchWorkScalesLinearly is a deterministic scaling gate: the RTA
// builder's dispatch work (Overrides probes plus caller fan-outs) may at
// most grow ×2.5 per doubling of classes. The per-site reference builder
// must break that bound, or the gate measures nothing.
func TestDispatchWorkScalesLinearly(t *testing.T) {
	const bound = 2.5
	sizes := []int{400, 800, 1600, 3200}
	work := make([]int, len(sizes))
	ref := make([]int, len(sizes))
	for i, n := range sizes {
		r := compileGenerated(t, n)
		opts := callgraph.Options{Mode: callgraph.RTA}
		_, work[i] = callgraph.BuildCounted(r.Program, r.Graph, opts)
		_, ref[i] = refBuild(r.Program, r.Graph, opts)
	}
	for i := 1; i < len(sizes); i++ {
		ratio := float64(work[i]) / float64(work[i-1])
		refRatio := float64(ref[i]) / float64(ref[i-1])
		t.Logf("%d -> %d classes: slots %d -> %d (x%.2f), reference %d -> %d (x%.2f)",
			sizes[i-1], sizes[i], work[i-1], work[i], ratio, ref[i-1], ref[i], refRatio)
		if ratio > bound {
			t.Errorf("%d -> %d classes: dispatch work grew x%.2f, bound x%.1f", sizes[i-1], sizes[i], ratio, bound)
		}
		if refRatio <= bound {
			t.Errorf("%d -> %d classes: reference builder grew only x%.2f, within the x%.1f bound", sizes[i-1], sizes[i], refRatio, bound)
		}
	}
}

// Package deadmember implements the dead-data-member detection algorithm of
// Sweeney & Tip, "A Study of Dead Data Members in C++ Applications"
// (PLDI 1998) — the primary contribution of the paper.
//
// A data member m is live if some object's value of m may affect the
// program's observable behaviour; otherwise it is dead. The algorithm
// (paper Figure 2) conservatively approximates deadness:
//
//  1. mark every data member dead;
//  2. build a call graph;
//  3. for every statement of every function reachable from main, mark live
//     every member that is read or whose address is taken — ignoring pure
//     write accesses, and skipping arguments of delete/free;
//  4. handle the C++ dark corners conservatively: qualified accesses,
//     pointer-to-member formation (&C::m), unsafe casts (mark all members
//     of the source type), volatile members (a write marks them live),
//     sizeof (policy-controlled), unions (one live member makes all
//     members live), and library classes (unclassifiable).
//
// Every member reported dead is guaranteed dead; liveness is conservative.
package deadmember

import (
	"context"
	"sort"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/failure"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/source"
	"deadmembers/internal/types"
)

// SizeofPolicy controls the treatment of sizeof expressions (paper §3.2).
type SizeofPolicy int

const (
	// SizeofIgnore assumes all sizeof uses are for storage allocation and
	// do not affect observable behaviour (the paper's setting for all its
	// benchmarks).
	SizeofIgnore SizeofPolicy = iota

	// SizeofConservative marks all members of any class measured by
	// sizeof as live (the paper's default before user inspection).
	SizeofConservative
)

// String names the policy.
func (p SizeofPolicy) String() string {
	if p == SizeofConservative {
		return "conservative"
	}
	return "ignore"
}

// Options configures an analysis run.
type Options struct {
	// CallGraph selects call-graph precision (default RTA, matching the
	// paper's PVG-derived graph).
	CallGraph callgraph.Mode

	// Sizeof selects the sizeof policy (default SizeofIgnore, the paper's
	// setting after verifying its benchmarks).
	Sizeof SizeofPolicy

	// NoDeleteSpecialCase disables the paper's special case that an
	// argument of delete/free need not be marked live (for ablation).
	NoDeleteSpecialCase bool

	// TrustDowncasts treats all downcasts as safe (the paper verified all
	// downcasts in its benchmarks were safe and notes "this is something
	// the user of the tool has to verify"). When false, members of the
	// source class of every potentially unsafe cast are marked live.
	TrustDowncasts bool

	// WritesAreUses makes every write access mark a member live, like a
	// naive "is it mentioned?" analysis. The paper's §2 argues this
	// distinction is what makes the algorithm useful at all: "data
	// members are typically initialized with a value in a constructor.
	// Otherwise, the initialization of data members would lead to
	// liveness, and very few data members would be dead." This option
	// exists to quantify that claim (ablation).
	WritesAreUses bool

	// LibraryClasses names classes belonging to libraries whose full
	// source is unavailable; their members are unclassifiable and their
	// virtual methods' overriders in user code become call-graph roots
	// (paper §3.3).
	LibraryClasses []string
}

// Reason explains why a member was classified live.
type Reason int

// Liveness reasons, in the priority order they are reported.
const (
	ReasonNone Reason = iota
	ReasonRead
	ReasonAddressTaken
	ReasonPointerToMember
	ReasonUnsafeCast
	ReasonVolatileWrite
	ReasonUnionClosure
	ReasonLibrary
	ReasonSizeof
	ReasonWrite // only under Options.WritesAreUses
)

// String returns a short human-readable reason.
func (r Reason) String() string {
	switch r {
	case ReasonRead:
		return "read"
	case ReasonAddressTaken:
		return "address taken"
	case ReasonPointerToMember:
		return "pointer-to-member"
	case ReasonUnsafeCast:
		return "unsafe cast"
	case ReasonVolatileWrite:
		return "volatile write"
	case ReasonUnionClosure:
		return "union closure"
	case ReasonLibrary:
		return "library class"
	case ReasonSizeof:
		return "sizeof"
	case ReasonWrite:
		return "written (writes-as-uses mode)"
	}
	return "dead"
}

// Mark records the liveness classification of one member.
type Mark struct {
	Live   bool
	Reason Reason
	// Witness is the source position of the access that first made the
	// member live (when applicable).
	Witness source.Pos
}

// Result is the outcome of an analysis.
type Result struct {
	Program   *types.Program
	Hierarchy *hierarchy.Graph
	CallGraph *callgraph.Graph
	Options   Options

	// Used is the set of used classes (a constructor call occurs in the
	// program); percentages are computed over these, per paper §4.2.
	Used map[*types.Class]bool

	// Failures records functions whose liveness processing panicked. The
	// accesses such a function recorded before faulting are kept (they are
	// real accesses, so liveness stays correct), but accesses it never got
	// to record are missing — a member reported dead is no longer
	// guaranteed dead. Non-empty Failures means the result is degraded.
	Failures []*failure.Failure

	// Interrupted reports that Exec.Ctx was cancelled before the liveness
	// pass completed; the marks are incomplete and must not be trusted.
	Interrupted bool

	marks   map[*types.Field]*Mark
	library map[*types.Class]bool
}

// Degraded reports whether any part of the analysis was contained after a
// fault, weakening the guaranteed-dead property.
func (r *Result) Degraded() bool { return len(r.Failures) > 0 }

// Exec configures how — not what — Analyze computes. Workers and Graph
// never change the Result: any value yields byte-identical
// classifications. Ctx and FuncFault are failure controls: they can stop
// or degrade a run, and exist for deadline handling and fault-injection
// tests respectively.
type Exec struct {
	// Workers bounds the number of goroutines marking reachable functions
	// concurrently. Values ≤ 1 run the paper's sequential loop.
	Workers int

	// Graph is an optional prebuilt call graph for the same program and
	// Options (as returned by BuildGraph); when non-nil the construction
	// step is skipped. Callers must not pass a graph built under different
	// Options — the reachable set would no longer match Figure 2's.
	Graph *callgraph.Graph

	// Ctx, when non-nil, is polled between functions during the liveness
	// pass; cancellation stops the pass and sets Result.Interrupted.
	Ctx context.Context

	// FuncFault, when non-nil, runs inside each function's containment
	// boundary just before the function is processed. Tests use it to
	// inject a panic into a chosen function or shard.
	FuncFault func(*types.Func)
}

// BuildGraph constructs the call graph Analyze would build for prog under
// opts: the selected mode, with user methods that override virtual methods
// of library classes as extra roots (the library may call them back). It
// exists so engines can cache graphs across analyses that share a mode.
func BuildGraph(prog *types.Program, h *hierarchy.Graph, opts Options) *callgraph.Graph {
	a := newAnalysis(prog, h, opts)
	return callgraph.Build(prog, h, callgraph.Options{
		Mode:       opts.CallGraph,
		ExtraRoots: a.libraryOverrideRoots(),
	})
}

// Analyze runs the dead-data-member analysis on a type-checked program.
func Analyze(prog *types.Program, h *hierarchy.Graph, opts Options) *Result {
	return AnalyzeWith(prog, h, opts, Exec{})
}

// AnalyzeWith is Analyze under an explicit execution configuration.
func AnalyzeWith(prog *types.Program, h *hierarchy.Graph, opts Options, exec Exec) *Result {
	a := newAnalysis(prog, h, opts)

	// Line 3 of Figure 2: mark all data members initially dead.
	for _, c := range prog.Classes {
		for _, f := range c.Fields {
			a.marks[f] = &Mark{}
		}
	}

	// Line 5: construct the call graph. Methods of user classes that
	// override virtual methods of library classes are extra roots: the
	// library may call them back.
	if exec.Graph != nil {
		a.res.CallGraph = exec.Graph
	} else {
		a.res.CallGraph = callgraph.Build(prog, h, callgraph.Options{
			Mode:       opts.CallGraph,
			ExtraRoots: a.libraryOverrideRoots(),
		})
	}

	// Library members are unclassifiable (paper §3.3).
	for c := range a.res.library {
		for _, f := range c.Fields {
			a.markLive(f, ReasonLibrary, source.NoPos)
		}
	}

	// Lines 6-8: process every statement of every reachable function.
	// Each function runs inside a recover boundary so a fault in one
	// cannot take down the pass; see processFuncGuarded.
	funcs := a.res.CallGraph.ReachableFuncs()
	if exec.Workers > 1 && len(funcs) > 1 {
		a.processFuncsParallel(funcs, exec)
	} else {
		for _, f := range funcs {
			if exec.Ctx != nil && exec.Ctx.Err() != nil {
				a.res.Interrupted = true
				break
			}
			if pf := a.processFuncGuarded(f, exec.FuncFault); pf != nil {
				a.res.Failures = append(a.res.Failures, pf)
			}
		}
	}

	// Lines 9-11: union closure, iterated to a fixpoint because marking a
	// union's contained class members can make another union live.
	a.unionClosure()

	return a.res
}

// newAnalysis builds the shared read-only state of one run: the Result
// shell, the used-class set, and the library designation.
func newAnalysis(prog *types.Program, h *hierarchy.Graph, opts Options) *analysis {
	a := &analysis{
		prog: prog,
		h:    h,
		info: prog.Info,
		opts: opts,
		res: &Result{
			Program:   prog,
			Hierarchy: h,
			Options:   opts,
			Used:      callgraph.UsedClasses(prog),
			marks:     map[*types.Field]*Mark{},
			library:   map[*types.Class]bool{},
		},
		visited: map[*types.Class]bool{},
	}
	a.marks = a.res.marks
	for _, name := range opts.LibraryClasses {
		if c, ok := prog.ClassByName[name]; ok {
			a.res.library[c] = true
		}
	}
	return a
}

// analysis carries the mutable state of one run. In the parallel liveness
// pass each worker gets its own analysis value whose marks map is a
// private sink; prog, h, info, opts, and res are shared read-only.
type analysis struct {
	prog    *types.Program
	h       *hierarchy.Graph
	info    *types.Info
	opts    Options
	res     *Result
	marks   map[*types.Field]*Mark // mark sink (res.marks, or worker-local)
	visited map[*types.Class]bool  // MarkAllContainedMembers visited set
}

// processFuncGuarded processes one reachable function inside a recover
// boundary. A panic — from the analysis itself or from an injected
// FuncFault — is contained: marks the function recorded before faulting
// are kept (they reflect real accesses), and the fault is returned for
// Result.Failures.
func (a *analysis) processFuncGuarded(f *types.Func, fault func(*types.Func)) *failure.Failure {
	return failure.Catch("liveness", f.QualifiedName(), func() {
		if fault != nil {
			fault(f)
		}
		a.processFunc(f)
	})
}

// libraryOverrideRoots returns user methods that override virtual methods
// declared in library classes.
func (a *analysis) libraryOverrideRoots() []*types.Func {
	var roots []*types.Func
	for _, c := range a.prog.Classes {
		if a.res.library[c] {
			continue
		}
		for _, m := range c.Methods {
			if !m.Virtual {
				continue
			}
			for _, bc := range a.h.AllBases(c) {
				if a.res.library[bc] {
					if bm := bc.MethodByName(m.Name); bm != nil && bm.Virtual {
						roots = append(roots, m)
						break
					}
				}
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		return roots[i].QualifiedName() < roots[j].QualifiedName()
	})
	return roots
}

func (a *analysis) markLive(f *types.Field, why Reason, at source.Pos) {
	m := a.marks[f]
	if m == nil {
		m = &Mark{}
		a.marks[f] = m
	}
	if m.Live {
		return
	}
	m.Live = true
	m.Reason = why
	m.Witness = at
}

// markAllContainedMembers implements MarkAllContainedMembers of Figure 2:
// mark every member of c live, recurse into class-typed members and into
// direct bases, with a visited set to avoid duplicated work.
func (a *analysis) markAllContainedMembers(c *types.Class, why Reason, at source.Pos) {
	if c == nil || a.visited[c] {
		return
	}
	a.visited[c] = true
	for _, f := range c.Fields {
		a.markLive(f, why, at)
		t := f.Type
		for {
			if arr, ok := t.(*types.Array); ok {
				t = arr.Elem
				continue
			}
			break
		}
		if n := types.IsClass(t); n != nil {
			a.markAllContainedMembers(n, why, at)
		}
	}
	for _, b := range c.Bases {
		a.markAllContainedMembers(b.Class, why, at)
	}
}

// unionClosure applies lines 9-11 of Figure 2: if any member of a union is
// live, all members directly or indirectly contained in the union become
// live. Iterated to a fixpoint.
func (a *analysis) unionClosure() {
	for {
		changed := false
		for _, c := range a.prog.Classes {
			if !c.IsUnion() {
				continue
			}
			anyLive := false
			allLive := true
			for _, f := range c.Fields {
				if a.marks[f].Live {
					anyLive = true
				} else {
					allLive = false
				}
			}
			if anyLive && !allLive {
				a.visited = map[*types.Class]bool{} // fresh visited set per closure round
				a.markAllContainedMembers(c, ReasonUnionClosure, c.Pos)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Result accessors

// MarkOf returns the classification of f (never nil for fields of the
// analyzed program).
func (r *Result) MarkOf(f *types.Field) Mark {
	if m := r.marks[f]; m != nil {
		return *m
	}
	return Mark{}
}

// IsLive reports whether f was marked live (or is unclassifiable).
func (r *Result) IsLive(f *types.Field) bool { return r.MarkOf(f).Live }

// IsDead reports whether f is guaranteed dead: not marked live and not in
// a library class.
func (r *Result) IsDead(f *types.Field) bool {
	return !r.IsLive(f) && !r.library[f.Owner]
}

// IsLibraryClass reports whether c was designated a library class.
func (r *Result) IsLibraryClass(c *types.Class) bool { return r.library[c] }

// countedClass reports whether c participates in the statistics: used,
// fully analyzable (not library), and a real class of the program.
func (r *Result) countedClass(c *types.Class) bool {
	return r.Used[c] && !r.library[c]
}

// DeadMembers returns the dead members of used, non-library classes,
// sorted by qualified name — the set the paper's Figure 3 counts.
func (r *Result) DeadMembers() []*types.Field {
	var out []*types.Field
	for _, c := range r.Program.Classes {
		if !r.countedClass(c) {
			continue
		}
		for _, f := range c.Fields {
			if r.IsDead(f) {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].QualifiedName() < out[j].QualifiedName()
	})
	return out
}

// Stats summarizes an analysis run in the paper's terms.
type Stats struct {
	Classes     int // total classes in the program (excluding library)
	UsedClasses int // classes with a constructor call
	Members     int // data members in used, non-library classes
	DeadMembers int
}

// DeadPercent returns 100 * DeadMembers / Members (0 when no members).
func (s Stats) DeadPercent() float64 {
	if s.Members == 0 {
		return 0
	}
	return 100 * float64(s.DeadMembers) / float64(s.Members)
}

// Stats computes the summary statistics of the run.
func (r *Result) Stats() Stats {
	var s Stats
	for _, c := range r.Program.Classes {
		if r.library[c] {
			continue
		}
		s.Classes++
		if !r.Used[c] {
			continue
		}
		s.UsedClasses++
		for _, f := range c.Fields {
			s.Members++
			if r.IsDead(f) {
				s.DeadMembers++
			}
		}
	}
	return s
}

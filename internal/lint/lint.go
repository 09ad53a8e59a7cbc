// Package lint implements flow-sensitive diagnostics on top of the
// flow-insensitive dead-member analysis: per-function CFGs
// (internal/cfg), backward may-liveness of member-access locations
// (internal/dataflow), and two checks —
//
//   - dead-store: a write to o.m that no execution path can follow with
//     a read of m from o before another write or function exit;
//   - write-only-member: corroborates the flow-insensitive dead set by
//     listing the orphaned store sites of each dead member.
//
// The paper's special cases carry over as suppressions: volatile,
// address-taken (incl. pointer-to-member), union-contained,
// unsafe-cast-exposed, and library-class members never produce
// dead-store findings. Findings are sorted by (file, line, col, check,
// message), and every per-function pass runs inside a failure.Catch
// boundary with a dataflow step budget, so one pathological function
// degrades the result instead of wedging or crashing the run.
package lint

import (
	"context"
	"errors"
	"sort"
	"sync"

	"deadmembers/internal/cfg"
	"deadmembers/internal/dataflow"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/failure"
	"deadmembers/internal/types"
)

// Checks emitted by this package.
const (
	CheckDeadStore = "dead-store"
	CheckWriteOnly = "write-only-member"
)

// Options configures what the lint pass computes.
type Options struct {
	// Budget caps dataflow solver steps per function; 0 selects the
	// automatic budget (dataflow.DefaultBudget), which no well-formed
	// function exceeds.
	Budget int
}

// Exec configures how — not what — Run computes; any Workers value
// yields byte-identical findings.
type Exec struct {
	// Workers bounds the per-function pass goroutines (≤1 = sequential).
	Workers int

	// Ctx, when non-nil, is polled between functions; cancellation stops
	// the pass and sets Result.Interrupted.
	Ctx context.Context

	// FuncFault, when non-nil, runs inside each function's containment
	// boundary before the function is linted (fault-injection tests).
	FuncFault func(*types.Func)
}

// Finding is one diagnostic, positioned at the offending store site.
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Member  string `json:"member"`
	Func    string `json:"func,omitempty"`
	Message string `json:"message"`
}

// Result is the outcome of a lint run.
type Result struct {
	// Findings, sorted by (File, Line, Col, Check, Message).
	Findings []Finding

	// Failures records functions whose lint pass panicked or exhausted
	// the dataflow budget; their findings are missing, so the result is
	// degraded (incomplete, never wrong).
	Failures []*failure.Failure

	// Interrupted reports that Exec.Ctx was cancelled mid-pass.
	Interrupted bool

	// Funcs counts the reachable functions the pass covered.
	Funcs int
}

// Degraded reports whether any per-function pass was contained after a
// fault or budget overrun, so findings may be missing.
func (r *Result) Degraded() bool { return len(r.Failures) > 0 }

// Run lints the analyzed program with default execution.
func Run(ar *deadmember.Result, opts Options) *Result {
	return RunWith(ar, opts, Exec{})
}

// RunWith is Run under an explicit execution configuration. The
// deadmember.Result supplies the program, the call graph (reachable set
// and edges for callee read summaries), and the flow-insensitive dead
// set the write-only check corroborates.
func RunWith(ar *deadmember.Result, opts Options, exec Exec) *Result {
	res := &Result{}
	ctx := exec.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	funcs := ar.CallGraph.ReachableFuncs()
	res.Funcs = len(funcs)

	// Phase 1 (sequential): classify every reachable function's accesses
	// once; the classifications feed suppression, callee summaries, and
	// the per-function dataflow passes alike.
	cls := make([]*classification, len(funcs))
	index := make(map[*types.Func]int, len(funcs))
	for i, f := range funcs {
		if ctx.Err() != nil {
			res.Interrupted = true
			return res
		}
		index[f] = i
		if pf := failure.Catch("lint", f.QualifiedName(), func() {
			cls[i] = classify(ar.Program.Info, f)
		}); pf != nil {
			res.Failures = append(res.Failures, pf)
			cls[i] = &classification{} // empty: function contributes nothing
		}
	}

	// Phase 2 (parallel): per-function CFG + backward liveness. Results
	// land in per-index slots and merge in index order, so findings are
	// byte-identical at any worker count.
	sup := suppressedFields(ar, cls)

	// What each function's outgoing calls may read: the union of its
	// callees' transitive summaries (not the function's own reads —
	// those gen at their own atoms).
	calls := calleeUnion(ar, funcs, index, readSummaries(ar, funcs, cls, index))

	findings := make([][]Finding, len(funcs))
	fails := make([]*failure.Failure, len(funcs))
	errs := make([]error, len(funcs))
	lintOne := func(i int) {
		f := funcs[i]
		fails[i] = failure.Catch("lint", f.QualifiedName(), func() {
			if exec.FuncFault != nil {
				exec.FuncFault(f)
			}
			if g := cfg.Build(f); g != nil {
				findings[i], errs[i] = deadStores(ar, f, g, cls[i], sup, calls[i], opts, ctx)
			}
		})
	}
	if !runParallel(ctx, exec.Workers, len(funcs), lintOne) {
		res.Interrupted = true
	}
	for i, f := range funcs {
		res.Findings = append(res.Findings, findings[i]...)
		if fails[i] != nil {
			res.Failures = append(res.Failures, fails[i])
		}
		switch {
		case errs[i] == nil:
		case errors.Is(errs[i], dataflow.ErrBudget):
			// A budget overrun is an ordinary internal diagnostic, not a
			// crash: surface it through the same Failures/Degraded path.
			res.Failures = append(res.Failures, &failure.Failure{
				Stage: "lint",
				Unit:  f.QualifiedName(),
				Value: errs[i].Error(),
				Stack: "budget",
			})
		default:
			// Context cancellation mid-solve.
			res.Interrupted = true
		}
	}

	// Phase 3: write-only corroboration over the flow-insensitive dead
	// set — every store site of a dead member is by construction
	// orphaned; list them as the explanation.
	res.Findings = append(res.Findings, writeOnly(ar, funcs, cls)...)

	sortFindings(res.Findings)
	sortFailures(res.Failures)
	return res
}

// sortFindings orders findings by (file, line, col, check, message) —
// the deterministic contract of the CLI output.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

func sortFailures(fs []*failure.Failure) {
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Unit < fs[j].Unit })
}

// suppressedFields computes the program-wide set of fields that never
// produce dead-store findings: the paper's special cases, applied as
// suppressions. The address-taken scan covers reachable functions only
// — sound, because an access in unreachable code cannot execute.
func suppressedFields(ar *deadmember.Result, cls []*classification) map[*types.Field]bool {
	sup := map[*types.Field]bool{}
	var supClass func(*types.Class, map[*types.Class]bool)
	supClass = func(c *types.Class, seen map[*types.Class]bool) {
		if c == nil || seen[c] {
			return
		}
		seen[c] = true
		for _, f := range c.Fields {
			sup[f] = true
			supClass(types.IsClass(elemType(f.Type)), seen)
		}
		for _, b := range c.Bases {
			supClass(b.Class, seen)
		}
	}

	for _, c := range ar.Program.Classes {
		// Volatile members: every write is observable.
		for _, f := range c.Fields {
			if f.Volatile {
				sup[f] = true
			}
		}
		// Union-contained members: stores alias across the union.
		if c.IsUnion() {
			supClass(c, map[*types.Class]bool{})
		}
		// Library classes: unclassifiable (paper §3.3).
		if c.Library || ar.IsLibraryClass(c) {
			for _, f := range c.Fields {
				sup[f] = true
			}
		}
	}

	// Address-taken members (incl. &C::m): reads through the pointer
	// are invisible to the tracker.
	for _, cl := range cls {
		for f := range cl.addr {
			sup[f] = true
		}
	}

	// Unsafe casts expose the source class's representation unless the
	// user vouched for every downcast.
	if !ar.Options.TrustDowncasts {
		for _, src := range ar.Program.Info.UnsafeCasts {
			supClass(src, map[*types.Class]bool{})
		}
	}
	return sup
}

// fieldSet is a callee read summary: the fields a call may read, or
// everything (pointer-to-member deref somewhere below).
type fieldSet struct {
	m         map[*types.Field]bool
	universal bool
}

// readSummaries computes, for each reachable function, the set of
// fields transitively read by itself and its callees — the gen effect
// of a call atom.
func readSummaries(ar *deadmember.Result, funcs []*types.Func, cls []*classification, index map[*types.Func]int) []*fieldSet {
	sums := make([]*fieldSet, len(funcs))
	for i, cl := range cls {
		s := &fieldSet{m: map[*types.Field]bool{}, universal: cl.universal}
		for f := range cl.reads {
			s.m[f] = true
		}
		sums[i] = s
	}
	// Close the seeds over the call graph's edges: each function absorbs
	// its callees' sets until quiescence. Monotone, so this terminates.
	for {
		changed := false
		for i, f := range funcs {
			s := sums[i]
			for _, callee := range ar.CallGraph.Edges[f] {
				j, ok := index[callee]
				if !ok {
					// Edge to a function outside the reachable scan
					// (defensive): assume it may touch anything.
					if !s.universal {
						s.universal = true
						changed = true
					}
					continue
				}
				cs := sums[j]
				if cs.universal && !s.universal {
					s.universal = true
					changed = true
				}
				for fld := range cs.m {
					if !s.m[fld] {
						s.m[fld] = true
						changed = true
					}
				}
			}
		}
		if !changed {
			return sums
		}
	}
}

// calleeUnion computes, per function, the union of its callees'
// transitive summaries — the effect of one call atom out of that
// function.
func calleeUnion(ar *deadmember.Result, funcs []*types.Func, index map[*types.Func]int, sums []*fieldSet) []*fieldSet {
	out := make([]*fieldSet, len(funcs))
	for i, f := range funcs {
		s := &fieldSet{m: map[*types.Field]bool{}}
		for _, callee := range ar.CallGraph.Edges[f] {
			j, ok := index[callee]
			if !ok {
				s.universal = true
				continue
			}
			if sums[j].universal {
				s.universal = true
			}
			for fld := range sums[j].m {
				s.m[fld] = true
			}
		}
		out[i] = s
	}
	return out
}

// runParallel runs fn(0..n-1) on up to `workers` goroutines, stopping
// early — between items, never mid-item — once ctx is cancelled. It
// reports whether every item ran (the deterministic-merge idiom of
// internal/deadmember/parallel.go).
func runParallel(ctx context.Context, workers, n int, fn func(int)) bool {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return false
			}
			fn(i)
		}
		return ctx.Err() == nil
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue
				}
				fn(i)
			}
		}()
	}
	complete := true
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			complete = false
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return complete && ctx.Err() == nil
}

package deadmember_test

import (
	"context"
	"strings"
	"testing"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/types"
)

// faultOn returns a FuncFault hook that panics when processing of the
// named function begins.
func faultOn(name string) func(*types.Func) {
	return func(f *types.Func) {
		if f.QualifiedName() == name {
			panic("injected fault in " + name)
		}
	}
}

// TestFuncFaultSalvagesSiblings injects a panic into the liveness
// processing of one function (B::f, the sole reader of B::mb1) and checks,
// for the sequential and several parallel configurations: the run
// completes, the fault is reported as a structured failure, every other
// member's classification is identical to a clean run, and the salvaged
// result is identical across worker counts.
func TestFuncFaultSalvagesSiblings(t *testing.T) {
	r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "test.mcc", Text: figure1})
	if err := r.Err(); err != nil {
		t.Fatalf("compile errors:\n%v", err)
	}
	opts := deadmember.Options{CallGraph: callgraph.RTA}
	clean := deadmember.AnalyzeWith(r.Program, r.Hierarchy, opts, deadmember.Exec{Workers: 4})
	if clean.Degraded() {
		t.Fatalf("clean run reports failures: %v", clean.Failures)
	}

	mb1 := r.Program.ClassByName["B"].FieldByName("mb1")
	var prev *deadmember.Result
	for _, workers := range []int{1, 2, 4} {
		res := deadmember.AnalyzeWith(r.Program, r.Hierarchy, opts,
			deadmember.Exec{Workers: workers, FuncFault: faultOn("B::f")})
		if len(res.Failures) != 1 || !res.Degraded() {
			t.Fatalf("workers=%d: failures = %v, want exactly one", workers, res.Failures)
		}
		f := res.Failures[0]
		if f.Stage != "liveness" || f.Unit != "B::f" || !strings.Contains(f.Value, "injected fault") {
			t.Fatalf("workers=%d: failure = %+v", workers, f)
		}
		// B::mb1's only access lived in the faulted function: it degrades
		// to (unsoundly) dead. Everything else must match the clean run.
		if res.MarkOf(mb1).Live {
			t.Errorf("workers=%d: B::mb1 still live despite its reader faulting", workers)
		}
		for _, c := range res.Program.Classes {
			for _, fld := range c.Fields {
				if fld == mb1 {
					continue
				}
				if got, want := res.MarkOf(fld), clean.MarkOf(fld); got != want {
					t.Errorf("workers=%d: %s = %+v, clean run has %+v", workers, fld.QualifiedName(), got, want)
				}
			}
		}
		if prev != nil {
			for _, c := range res.Program.Classes {
				for _, fld := range c.Fields {
					if res.MarkOf(fld) != prev.MarkOf(fld) {
						t.Errorf("workers=%d: %s differs from previous worker count", workers, fld.QualifiedName())
					}
				}
			}
		}
		prev = res
	}
}

// TestAnalyzeInterrupted: a cancelled context stops the liveness pass and
// flags the result as not trustworthy.
func TestAnalyzeInterrupted(t *testing.T) {
	r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "test.mcc", Text: figure1})
	if err := r.Err(); err != nil {
		t.Fatalf("compile errors:\n%v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res := deadmember.AnalyzeWith(r.Program, r.Hierarchy,
			deadmember.Options{CallGraph: callgraph.RTA},
			deadmember.Exec{Workers: workers, Ctx: ctx})
		if !res.Interrupted {
			t.Errorf("workers=%d: cancelled context did not interrupt the pass", workers)
		}
	}
}

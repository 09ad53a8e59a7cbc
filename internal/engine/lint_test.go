package engine_test

import (
	"context"
	"testing"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/lint"
	"deadmembers/internal/types"
)

const lintSrc = `
class P {
public:
    int x;
    int y;
    P() : x(0), y(0) {}
    int sum() { return x + y; }
};
void overwrite(P* p) {
    p->x = 1;
    p->x = 2;
}
int main() {
    P p;
    overwrite(&p);
    print(p.sum());
    return 0;
}
`

func TestLintTimingsAndFindings(t *testing.T) {
	sess := engine.NewSession(engine.Config{})
	comp := sess.CompileContext(context.Background(), engine.Source{Name: "lint.mcc", Text: lintSrc})
	if err := comp.Err(); err != nil {
		t.Fatal(err)
	}
	res, timings, err := comp.LintContext(context.Background(),
		deadmember.Options{CallGraph: callgraph.RTA}, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded() {
		t.Fatalf("degraded: %v", res.Failures)
	}
	if len(res.Findings) != 1 || res.Findings[0].Check != lint.CheckDeadStore {
		t.Fatalf("findings = %v, want one dead store", res.Findings)
	}
	if timings.Lint <= 0 {
		t.Errorf("Timings.Lint not populated: %v", timings.Lint)
	}
	if timings.Total() < timings.Lint {
		t.Errorf("Total() = %v excludes Lint = %v", timings.Total(), timings.Lint)
	}
}

// TestLintCachePerPrecision exercises the per-compilation lint cache
// (named for the precision tiers it once keyed): a repeat run is a
// flagged cache hit returning the identical result, while a different
// budget or library list gets its own entry.
func TestLintCachePerPrecision(t *testing.T) {
	sess := engine.NewSession(engine.Config{})
	comp := sess.CompileContext(context.Background(), engine.Source{Name: "lint.mcc", Text: lintSrc})
	if err := comp.Err(); err != nil {
		t.Fatal(err)
	}
	opts := deadmember.Options{CallGraph: callgraph.RTA}

	first, timings, err := comp.LintContext(context.Background(), opts, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if timings.LintCached {
		t.Fatal("first run flagged as cached")
	}
	again, timings, err := comp.LintContext(context.Background(), opts, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !timings.LintCached || timings.Lint != 0 {
		t.Fatalf("repeat run not served from cache (cached=%v lint=%v)", timings.LintCached, timings.Lint)
	}
	if again != first {
		t.Fatal("cache returned a different result")
	}

	// Distinct budgets must not collide.
	_, timings, err = comp.LintContext(context.Background(), opts, lint.Options{Budget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if timings.LintCached {
		t.Fatal("budget change served from the old cache entry")
	}

	// Nor may library lists that print alike: ["P x"] and ["P","x"].
	for _, libs := range [][]string{{"P x"}, {"P", "x"}} {
		lopts := deadmember.Options{CallGraph: callgraph.RTA, LibraryClasses: libs}
		_, timings, err := comp.LintContext(context.Background(), lopts, lint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if timings.LintCached {
			t.Fatalf("library list %q served from another list's cache entry", libs)
		}
	}
}

func TestLintFaultContainment(t *testing.T) {
	sess := engine.NewSession(engine.Config{
		LintFault: func(f *types.Func) {
			if f.QualifiedName() == "overwrite" {
				panic("injected lint fault")
			}
		},
	})
	comp := sess.CompileContext(context.Background(), engine.Source{Name: "lint.mcc", Text: lintSrc})
	if err := comp.Err(); err != nil {
		t.Fatal(err)
	}
	res, _, err := comp.LintContext(context.Background(),
		deadmember.Options{CallGraph: callgraph.RTA}, lint.Options{})
	if err != nil {
		t.Fatalf("a contained panic must not become an error: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("injected fault should degrade the lint result")
	}
	found := false
	for _, f := range res.Failures {
		if f.Stage == "lint" && f.Unit == "overwrite" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing containment record: %v", res.Failures)
	}
}

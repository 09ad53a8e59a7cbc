package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/frontend"
	"deadmembers/internal/types"
)

// analyzeFixture compiles one testdata fixture and runs the
// flow-insensitive analysis the lint pass builds on.
func analyzeFixture(t *testing.T, name string, opts deadmember.Options) *deadmember.Result {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	res := frontend.Compile(frontend.Source{Name: name, Text: string(text)})
	if err := res.Err(); err != nil {
		t.Fatalf("%s does not compile: %v", name, err)
	}
	return deadmember.Analyze(res.Program, res.Graph, opts)
}

func deadStoreFindings(r *Result) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Check == CheckDeadStore {
			out = append(out, f)
		}
	}
	return out
}

func writeOnlyFindings(r *Result) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Check == CheckWriteOnly {
			out = append(out, f)
		}
	}
	return out
}

// TestPlainDeadStores pins the exact true positives and verifies the
// negatives (read-after-store, loop-carried read) are silent.
func TestPlainDeadStores(t *testing.T) {
	ar := analyzeFixture(t, "plain.mcc", deadmember.Options{CallGraph: callgraph.RTA})
	r := Run(ar, Options{})
	if r.Degraded() {
		t.Fatalf("degraded: %v", r.Failures)
	}
	ds := deadStoreFindings(r)
	want := []struct {
		line   int
		member string
		fn     string
	}{
		{14, "Q::a", "Q::Q"},      // initializer a(1), overwritten in the ctor body
		{20, "P::x", "overwrite"}, // p.x = 1, overwritten before use
		{35, "P::y", "discard"},   // p.y = 7, discarded at function exit
	}
	if len(ds) != len(want) {
		t.Fatalf("dead stores = %d, want %d:\n%v", len(ds), len(want), ds)
	}
	for i, w := range want {
		if ds[i].Line != w.line || ds[i].Member != w.member || ds[i].Func != w.fn {
			t.Errorf("finding %d = %s:%d %s in %s, want line %d %s in %s",
				i, ds[i].File, ds[i].Line, ds[i].Member, ds[i].Func, w.line, w.member, w.fn)
		}
	}
	if wo := writeOnlyFindings(r); len(wo) != 0 {
		t.Errorf("unexpected write-only findings: %v", wo)
	}
}

// TestSuppressions runs every special-case fixture and expects silence.
func TestSuppressions(t *testing.T) {
	cases := []struct {
		fixture string
		opts    deadmember.Options
	}{
		{"volatile.mcc", deadmember.Options{CallGraph: callgraph.RTA}},
		{"addrtaken.mcc", deadmember.Options{CallGraph: callgraph.RTA}},
		{"union.mcc", deadmember.Options{CallGraph: callgraph.RTA}},
		{"unsafecast.mcc", deadmember.Options{CallGraph: callgraph.RTA}},
		{"library.mcc", deadmember.Options{CallGraph: callgraph.RTA, LibraryClasses: []string{"Lib"}}},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			ar := analyzeFixture(t, c.fixture, c.opts)
			r := Run(ar, Options{})
			if r.Degraded() {
				t.Fatalf("degraded: %v", r.Failures)
			}
			if len(r.Findings) != 0 {
				t.Errorf("expected zero findings, got %v", r.Findings)
			}
		})
	}
}

// TestTrustDowncastsReenables verifies the unsafe-cast suppression is
// tied to the TrustDowncasts option: vouching for the casts restores
// the dead-store finding.
func TestTrustDowncastsReenables(t *testing.T) {
	ar := analyzeFixture(t, "unsafecast.mcc", deadmember.Options{CallGraph: callgraph.RTA, TrustDowncasts: true})
	r := Run(ar, Options{})
	ds := deadStoreFindings(r)
	if len(ds) != 1 || ds[0].Member != "A::a1" {
		t.Fatalf("want exactly one A::a1 dead store, got %v", ds)
	}
}

// TestWriteOnlyCorroboration checks that a flow-insensitively dead
// member is explained site by site, and a never-accessed member is
// reported at its declaration.
func TestWriteOnlyCorroboration(t *testing.T) {
	ar := analyzeFixture(t, "writeonly.mcc", deadmember.Options{CallGraph: callgraph.RTA})
	r := Run(ar, Options{})
	if r.Degraded() {
		t.Fatalf("degraded: %v", r.Failures)
	}
	wo := writeOnlyFindings(r)
	var ghosts, phantoms int
	for _, f := range wo {
		switch f.Member {
		case "W::ghost":
			ghosts++
			if f.Func == "" {
				t.Errorf("ghost store site missing function: %+v", f)
			}
		case "W::phantom":
			phantoms++
			if !strings.Contains(f.Message, "no reachable code") {
				t.Errorf("phantom should be a declaration-site finding: %+v", f)
			}
		default:
			t.Errorf("unexpected write-only member %s", f.Member)
		}
	}
	if ghosts != 2 {
		t.Errorf("ghost store sites = %d, want 2 (ctor init + setGhost):\n%v", ghosts, wo)
	}
	if phantoms != 1 {
		t.Errorf("phantom findings = %d, want 1", phantoms)
	}
	if ds := deadStoreFindings(r); len(ds) != 0 {
		t.Errorf("stores to this-based members must not double-report as dead stores: %v", ds)
	}
}

// TestFindingsSorted verifies the (file, line, col, check) ordering
// contract on a fixture that produces several findings.
func TestFindingsSorted(t *testing.T) {
	ar := analyzeFixture(t, "plain.mcc", deadmember.Options{CallGraph: callgraph.RTA})
	r := Run(ar, Options{})
	for i := 1; i < len(r.Findings); i++ {
		a, b := r.Findings[i-1], r.Findings[i]
		if a.File > b.File ||
			(a.File == b.File && a.Line > b.Line) ||
			(a.File == b.File && a.Line == b.Line && a.Col > b.Col) {
			t.Fatalf("findings out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestParallelDeterminism mirrors the liveness shard-merge guarantee:
// any worker count yields identical findings.
func TestParallelDeterminism(t *testing.T) {
	for _, fixture := range []string{"plain.mcc", "writeonly.mcc", "library.mcc"} {
		opts := deadmember.Options{CallGraph: callgraph.RTA}
		if fixture == "library.mcc" {
			opts.LibraryClasses = []string{"Lib"}
		}
		ar := analyzeFixture(t, fixture, opts)
		seq := RunWith(ar, Options{}, Exec{Workers: 1})
		for _, workers := range []int{2, 4, 8} {
			par := RunWith(ar, Options{}, Exec{Workers: workers})
			if !reflect.DeepEqual(seq.Findings, par.Findings) {
				t.Fatalf("%s: findings differ between 1 and %d workers\nseq: %v\npar: %v",
					fixture, workers, seq.Findings, par.Findings)
			}
		}
	}
}

// TestBudgetOverrunDegrades drives the solver into its step budget and
// expects an ordinary degraded result — failures with the "budget"
// marker that name the overrunning function, no panic, no hang.
func TestBudgetOverrunDegrades(t *testing.T) {
	ar := analyzeFixture(t, "plain.mcc", deadmember.Options{CallGraph: callgraph.RTA})
	r := Run(ar, Options{Budget: 1})
	if !r.Degraded() {
		t.Fatal("budget 1 should degrade the run")
	}
	reachable := map[string]bool{}
	for _, f := range ar.CallGraph.ReachableFuncs() {
		reachable[f.QualifiedName()] = true
	}
	for _, f := range r.Failures {
		if !reachable[f.Unit] {
			t.Errorf("failure unit %q does not name a reachable function", f.Unit)
		}
		if f.Stage != "lint" {
			t.Errorf("failure stage = %q, want lint", f.Stage)
		}
		if f.Stack != "budget" {
			t.Errorf("failure marker = %q, want budget", f.Stack)
		}
		if !strings.Contains(f.Value, "budget") {
			t.Errorf("failure value should mention the budget: %q", f.Value)
		}
	}
}

// TestFaultInjection confirms a panicking lint worker is contained and
// surfaced, mirroring the liveness containment contract — and that the
// other functions' findings survive.
func TestFaultInjection(t *testing.T) {
	ar := analyzeFixture(t, "plain.mcc", deadmember.Options{CallGraph: callgraph.RTA})
	r := RunWith(ar, Options{}, Exec{
		Workers: 4,
		FuncFault: func(f *types.Func) {
			if f.QualifiedName() == "overwrite" {
				panic("boom")
			}
		},
	})
	if !r.Degraded() {
		t.Fatal("injected fault should degrade the run")
	}
	found := false
	for _, f := range r.Failures {
		if f.Unit == "overwrite" && f.Stage == "lint" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing containment record for overwrite: %v", r.Failures)
	}
	// The faulted function's finding is lost; the others survive.
	for _, f := range deadStoreFindings(r) {
		if f.Func == "overwrite" {
			t.Errorf("faulted function should contribute no findings: %+v", f)
		}
	}
	if len(deadStoreFindings(r)) == 0 {
		t.Error("sibling functions' findings should be salvaged")
	}
}

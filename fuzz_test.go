package deadmembers_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deadmembers"
	"deadmembers/internal/cfg"
	"deadmembers/internal/engine"
)

// The fuzz targets hold the pipeline to its containment contract on
// arbitrary input: the frontend may reject a program with diagnostics,
// but it must never panic out of the API, never report a degraded
// compilation (a contained panic on plain source text is a bug, not
// containment working as intended), and anything Strip emits must
// recompile cleanly. Regressions caught by fuzzing are checked in under
// testdata/fuzz/<FuzzName>/ and replayed by plain `go test`.

func seedCorpus(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.mcc"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Add("int main() { return 0; }")
	f.Add("class C { public: int x; C() : x(1) {} }; int main() { C c; return c.x; }")
}

func fuzzCompile(t *testing.T, text string) (*deadmembers.Compilation, bool) {
	t.Helper()
	c, err := deadmembers.Compile(context.Background(), deadmembers.CompileConfig{}, deadmembers.Source{Name: "fuzz.mcc", Text: text})
	if err != nil {
		return nil, false // rejected with diagnostics: fine
	}
	if c.Degraded() {
		t.Fatalf("compile degraded on plain source input: %v", c.Failures())
	}
	return c, true
}

func FuzzCompile(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, text string) {
		fuzzCompile(t, text)
	})
}

func FuzzAnalyze(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, text string) {
		c, ok := fuzzCompile(t, text)
		if !ok {
			return
		}
		for _, opts := range []deadmembers.Options{
			{},
			{CallGraph: deadmembers.CallGraphCHA, WritesAreUses: true},
			{CallGraph: deadmembers.CallGraphALL, TrustDowncasts: true, NoDeleteSpecialCase: true},
		} {
			res, _, err := c.Analyze(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Degraded() {
				t.Fatalf("analysis degraded on plain source input: %v", res.Failures)
			}
			for _, m := range res.DeadMembers() {
				if !res.IsDead(m) {
					t.Fatalf("%s listed dead but IsDead is false", m.QualifiedName())
				}
			}
		}
	})
}

// FuzzCFG holds the flow-sensitive layer to its contract on arbitrary
// compiling input: every function's CFG satisfies the structural
// invariants, the lint pass terminates under the default solver budget
// without degrading, and a deliberately starved budget surfaces only
// orderly "budget" failures — never a hang or a panic.
func FuzzCFG(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, text string) {
		res := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "fuzz.mcc", Text: text})
		if res.Err() != nil {
			return
		}
		for _, fn := range res.Program.AllFuncs() {
			g := cfg.Build(fn)
			if g == nil {
				continue
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if g.Dump() == "" || g.DOT() == "" {
				t.Fatalf("%s: empty CFG rendering", fn.QualifiedName())
			}
		}

		c, ok := fuzzCompile(t, text)
		if !ok {
			return
		}
		ctx := context.Background()
		lres, _, err := c.Lint(ctx, deadmembers.Options{}, deadmembers.LintOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if lres.Degraded() {
			t.Fatalf("lint degraded on plain source input under the default budget: %v", lres.Failures)
		}
		// A starved budget must fail politely, function by function.
		lres, _, err = c.Lint(ctx, deadmembers.Options{}, deadmembers.LintOptions{Budget: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, fl := range lres.Failures {
			if fl.Stack != "budget" {
				t.Fatalf("non-budget failure under Budget=1: %+v", fl)
			}
		}
	})
}

func FuzzStripRoundTrip(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, text string) {
		c, ok := fuzzCompile(t, text)
		if !ok {
			return
		}
		ctx := context.Background()
		out, err := c.Strip(ctx, deadmembers.Options{}, deadmembers.StripOptions{})
		if err != nil {
			t.Fatalf("compiled program failed to strip: %v", err)
		}
		// The round-trip property: whatever the transform emits is a valid
		// MC++ program — it reparses and rechecks with zero diagnostics.
		if _, err := deadmembers.Compile(ctx, deadmembers.CompileConfig{}, out.Sources...); err != nil {
			var b strings.Builder
			for _, s := range out.Sources {
				b.WriteString(s.Text)
			}
			t.Fatalf("stripped output does not recompile: %v\n---- stripped ----\n%s", err, b.String())
		}
	})
}

// FuzzVMDifferential is the engine equivalence fuzzer: every compiling
// input is executed under the tree-walking interpreter and the bytecode
// VM through the instrumented profiler, and the two runs must agree
// byte-for-byte — same output, exit code, step count, and heap
// high-water marks — or fail with the identical error. The input is
// compiled once; only the execution engine differs between the runs,
// so any divergence is the VM's fault by construction.
func FuzzVMDifferential(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, text string) {
		c, ok := fuzzCompile(t, text)
		if !ok {
			return
		}
		// A small step budget keeps looping inputs cheap under coverage
		// instrumentation; both engines count statements identically, so
		// the budget trips in lockstep.
		const budget = 20_000
		tree, terr := c.Profile(context.Background(), deadmembers.Options{MaxSteps: budget, Engine: deadmembers.EngineTree})
		vm, verr := c.Profile(context.Background(), deadmembers.Options{MaxSteps: budget, Engine: deadmembers.EngineVM})
		if (terr != nil) != (verr != nil) {
			t.Fatalf("engines disagree on failure: tree=%v vm=%v", terr, verr)
		}
		if terr != nil {
			if terr.Error() != verr.Error() {
				t.Fatalf("engines fail differently:\ntree: %v\nvm:   %v", terr, verr)
			}
			return
		}
		if tree.Exec.Output != vm.Exec.Output {
			t.Fatalf("output differs:\ntree: %q\nvm:   %q", tree.Exec.Output, vm.Exec.Output)
		}
		if tree.Exec.ExitCode != vm.Exec.ExitCode || tree.Exec.Steps != vm.Exec.Steps {
			t.Fatalf("exit/steps differ: tree(exit=%d steps=%d) vm(exit=%d steps=%d)",
				tree.Exec.ExitCode, tree.Exec.Steps, vm.Exec.ExitCode, vm.Exec.Steps)
		}
		if tree.Ledger.HighWater != vm.Ledger.HighWater ||
			tree.Ledger.AdjustedHighWater != vm.Ledger.AdjustedHighWater {
			t.Fatalf("heap HWM differs: tree(%d/%d) vm(%d/%d)",
				tree.Ledger.HighWater, tree.Ledger.AdjustedHighWater,
				vm.Ledger.HighWater, vm.Ledger.AdjustedHighWater)
		}
	})
}

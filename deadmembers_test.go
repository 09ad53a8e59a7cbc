package deadmembers_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"deadmembers"
)

const apiExample = `
class Widget {
public:
	int shown;       // live
	int refreshes;   // dead: write-only counter
	Widget() : shown(0), refreshes(0) {}
	void draw() { shown = shown + 1; refreshes = refreshes + 0 * shown; }
	int visible() { return shown; }
};
int main() {
	Widget w;
	w.draw();
	w.draw();
	return w.visible();
}
`

// compile compiles sources under a background context, failing the test
// on a compile error.
func compile(t testing.TB, sources ...deadmembers.Source) *deadmembers.Compilation {
	t.Helper()
	c, err := deadmembers.Compile(context.Background(), deadmembers.CompileConfig{}, sources...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// analyze compiles sources and runs the analysis under opts, failing the
// test on any error.
func analyze(t testing.TB, opts deadmembers.Options, sources ...deadmembers.Source) *deadmembers.Result {
	t.Helper()
	res, _, err := compile(t, sources...).Analyze(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAnalyzeSourceDefaultsToRTA(t *testing.T) {
	res := analyze(t, deadmembers.Options{}, deadmembers.Source{Name: "api.mcc", Text: apiExample})
	if res.CallGraph.Mode.String() != "RTA" {
		t.Fatalf("default call graph = %s, want RTA", res.CallGraph.Mode)
	}
	// refreshes is read (compound-style) so actually live; shown is live.
	dead := res.DeadMembers()
	if len(dead) != 0 {
		t.Fatalf("unexpected dead members: %v", dead)
	}
}

func TestAnalyzeReportsCompileErrors(t *testing.T) {
	_, err := deadmembers.Compile(context.Background(), deadmembers.CompileConfig{},
		deadmembers.Source{Name: "bad.mcc", Text: "int main() { return x; }"})
	if err == nil || !strings.Contains(err.Error(), "undeclared identifier") {
		t.Fatalf("want compile error, got %v", err)
	}
}

func TestRunExecutes(t *testing.T) {
	res, err := compile(t, deadmembers.Source{Name: "run.mcc", Text: `
int main() { print("hi"); println(); return 7; }`}).Run(context.Background(), deadmembers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 7 || res.Output != "hi\n" {
		t.Fatalf("exit=%d output=%q", res.ExitCode, res.Output)
	}
}

func TestProfileSourceEndToEnd(t *testing.T) {
	src := `
class Box {
public:
	int used;
	int wasted;     // dead
	Box() : used(1), wasted(2) {}
};
int main() {
	int acc = 0;
	for (int i = 0; i < 10; i++) {
		Box* b = new Box();
		acc = acc + b->used;
		delete b;
	}
	return acc;
}
`
	prof, err := compile(t, deadmembers.Source{Name: "box.mcc", Text: src}).Profile(context.Background(), deadmembers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Exec.ExitCode != 10 {
		t.Fatalf("exit = %d, want 10", prof.Exec.ExitCode)
	}
	l := prof.Ledger
	if l.TotalObjects != 10 {
		t.Fatalf("objects = %d, want 10", l.TotalObjects)
	}
	// Box is 8 bytes (two ints), half dead.
	if l.TotalBytes != 80 || l.DeadBytes != 40 {
		t.Fatalf("bytes = %d dead = %d, want 80/40", l.TotalBytes, l.DeadBytes)
	}
	if l.HighWater != 8 || l.AdjustedHighWater != 4 {
		t.Fatalf("hwm = %d adj = %d, want 8/4", l.HighWater, l.AdjustedHighWater)
	}
}

func TestMultiFilePrograms(t *testing.T) {
	lib := deadmembers.Source{Name: "lib.mcc", Text: `
class Counter {
public:
	int n;
	int spare;   // dead
	Counter() : n(0), spare(0) {}
	void bump() { n = n + 1; }
	int get() { return n; }
};
`}
	app := deadmembers.Source{Name: "app.mcc", Text: `
int main() {
	Counter c;
	c.bump();
	c.bump();
	return c.get();
}
`}
	dead := analyze(t, deadmembers.Options{}, lib, app).DeadMembers()
	if len(dead) != 1 || dead[0].QualifiedName() != "Counter::spare" {
		t.Fatalf("dead = %v, want [Counter::spare]", dead)
	}
}

func TestStripAPI(t *testing.T) {
	src := deadmembers.Source{Name: "s.mcc", Text: `
class R {
public:
	int keep;
	int drop;   // dead
	R() : keep(1), drop(2) {}
};
int main() {
	R r;
	return r.keep;
}
`}
	ctx := context.Background()
	comp := compile(t, src)
	before, err := comp.Run(ctx, deadmembers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := comp.Strip(ctx, deadmembers.Options{}, deadmembers.StripOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.RemovedMembers) != 1 || out.RemovedMembers[0] != "R::drop" {
		t.Fatalf("removed = %v", out.RemovedMembers)
	}
	after, err := compile(t, out.Sources...).Run(ctx, deadmembers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if before.ExitCode != after.ExitCode {
		t.Fatal("behaviour changed")
	}
}

// TestStripCancelled: a context cancelled after Compile stops Strip in
// its analysis with the context's error, before the transform touches
// the compilation, so the compilation is still usable afterwards.
func TestStripCancelled(t *testing.T) {
	comp := compile(t, deadmembers.Source{Name: "s.mcc", Text: reuseExample})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := comp.Strip(ctx, deadmembers.Options{}, deadmembers.StripOptions{})
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("Strip on a cancelled context = %v, %v; want nil, context.Canceled", out, err)
	}
	// Not consumed: the same compilation still analyzes and strips.
	res, _, err := comp.Analyze(context.Background(), deadmembers.Options{})
	if err != nil || len(res.DeadMembers()) != 1 {
		t.Fatalf("analysis after a cancelled Strip: %v, dead = %v", err, res.DeadMembers())
	}
	if out, err = comp.Strip(context.Background(), deadmembers.Options{}, deadmembers.StripOptions{}); err != nil || len(out.RemovedMembers) != 1 {
		t.Fatalf("Strip after a cancelled Strip: %v, %+v", err, out)
	}
}

func TestCallGraphModeMapping(t *testing.T) {
	src := `
class A { public: virtual int f() { return a; } int a; };
class B : public A { public: virtual int f() { return b; } int b; };
B* makeB() { return new B(); }   // never called: B is used but never
                                 // instantiated in reachable code
int main() { A x; A* p = &x; return p->f(); }
`
	// Under ALL and CHA, B::f is a dispatch target so B::b is live;
	// under RTA, B is not instantiated in reachable code so B::b is dead
	// — this distinguishes the mappings through the public API.
	counts := map[deadmembers.CallGraphMode]int{}
	for _, mode := range []deadmembers.CallGraphMode{
		deadmembers.CallGraphRTA, deadmembers.CallGraphCHA, deadmembers.CallGraphALL,
	} {
		res := analyze(t, deadmembers.Options{CallGraph: mode}, deadmembers.Source{Name: "m.mcc", Text: src})
		if got := res.CallGraph.Mode.String(); got != [...]string{"RTA", "CHA", "ALL"}[mode] {
			t.Errorf("mode %d mapped to %s", mode, got)
		}
		counts[mode] = len(res.DeadMembers())
	}
	if counts[deadmembers.CallGraphRTA] <= counts[deadmembers.CallGraphCHA] {
		t.Errorf("RTA should find more dead members than CHA here: %v", counts)
	}
}

func TestOptionsPlumbing(t *testing.T) {
	src := `
class A { public: int x; };
class B : public A { public: int y; };
int main() {
	A* p = new B();
	B* q = (B*)p;
	return q->y;
}
`
	comp := compile(t, deadmembers.Source{Name: "t.mcc", Text: src})
	conservative, _, err := comp.Analyze(context.Background(), deadmembers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trusting, _, err := comp.Analyze(context.Background(), deadmembers.Options{TrustDowncasts: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(conservative.DeadMembers()) != 0 {
		t.Fatal("conservative downcast handling should keep A::x live")
	}
	if len(trusting.DeadMembers()) != 1 {
		t.Fatal("trusted downcasts should let A::x die")
	}
}

const reuseExample = `
class Box {
public:
	int used;
	int wasted;    // dead: written in the ctor, never read
	Box() : used(1), wasted(2) {}
};
int main() {
	Box* b = new Box();
	int v = b->used;
	delete b;
	return v;
}
`

// TestCompileReuse exercises the compile-once API: one Compilation serves
// several analyses under different options, a profile, and a run — with
// no recompilation in between.
func TestCompileReuse(t *testing.T) {
	ctx := context.Background()
	comp := compile(t, deadmembers.Source{Name: "reuse.mcc", Text: reuseExample})

	res, _, err := comp.Analyze(ctx, deadmembers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dead := res.DeadMembers(); len(dead) != 1 || dead[0].QualifiedName() != "Box::wasted" {
		t.Fatalf("dead = %v, want [Box::wasted]", dead)
	}

	// Same compilation, different options: writes-as-uses revives the
	// write-only member.
	res2, _, err := comp.Analyze(ctx, deadmembers.Options{WritesAreUses: true})
	if err != nil {
		t.Fatal(err)
	}
	if dead := res2.DeadMembers(); len(dead) != 0 {
		t.Fatalf("writes-as-uses left members dead: %v", dead)
	}

	prof, err := comp.Profile(ctx, deadmembers.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Exec.ExitCode != 1 || prof.Ledger.DeadBytes != 4 {
		t.Fatalf("profile exit=%d deadbytes=%d, want 1/4", prof.Exec.ExitCode, prof.Ledger.DeadBytes)
	}

	exec, err := comp.Run(ctx, deadmembers.Options{})
	if err != nil || exec.ExitCode != 1 {
		t.Fatalf("run: %v result=%+v", err, exec)
	}

	// Frontend work happened exactly once, and the stage timings cover it.
	tm := comp.Timings()
	if tm.Total() <= 0 {
		t.Fatalf("timings not recorded: %+v", tm)
	}
	if comp.Fingerprint() == "" {
		t.Fatal("empty fingerprint")
	}

	// Compile errors surface from Compile itself.
	if _, err := deadmembers.Compile(ctx, deadmembers.CompileConfig{}, deadmembers.Source{Name: "bad.mcc", Text: "int main() { return z; }"}); err == nil {
		t.Fatal("want compile error")
	}
}

// TestWritesAreUsesOption checks the paper's §2 distinction end to end
// through the public API: under the default read-based definition the
// write-only member is dead; treating writes as uses revives it.
func TestWritesAreUsesOption(t *testing.T) {
	src := deadmembers.Source{Name: "w.mcc", Text: reuseExample}
	res := analyze(t, deadmembers.Options{}, src)
	if len(res.DeadMembers()) != 1 {
		t.Fatalf("default analysis should find Box::wasted dead, got %v", res.DeadMembers())
	}
	res = analyze(t, deadmembers.Options{WritesAreUses: true}, src)
	if len(res.DeadMembers()) != 0 {
		t.Fatalf("WritesAreUses should leave nothing dead, got %v", res.DeadMembers())
	}
}

// TestCompileWithWorkers pins that explicit worker counts (sequential and
// saturated) agree through the public API.
func TestCompileWithWorkers(t *testing.T) {
	var lists [2]string
	for i, workers := range []int{1, 8} {
		comp, err := deadmembers.Compile(context.Background(), deadmembers.CompileConfig{Workers: workers},
			deadmembers.Source{Name: "reuse.mcc", Text: reuseExample})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := comp.Analyze(context.Background(), deadmembers.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, f := range res.DeadMembers() {
			names = append(names, f.QualifiedName())
		}
		lists[i] = strings.Join(names, ",")
	}
	if lists[0] != lists[1] {
		t.Fatalf("worker counts disagree: %q vs %q", lists[0], lists[1])
	}
}

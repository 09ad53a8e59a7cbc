package engine_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/frontend"
	"deadmembers/internal/strip"
)

// renderResult serializes every member's classification — liveness,
// reason, and witness position — into one deterministic string, so two
// analyses can be compared byte-for-byte.
func renderResult(res *deadmember.Result) string {
	var b strings.Builder
	for _, c := range res.Program.Classes {
		for _, f := range c.Fields {
			m := res.MarkOf(f)
			fmt.Fprintf(&b, "%-40s live=%-5v reason=%-28s witness=%s\n",
				f.QualifiedName(), m.Live, m.Reason, res.Program.FileSet.Position(m.Witness))
		}
	}
	b.WriteString("dead:")
	for _, f := range res.DeadMembers() {
		b.WriteString(" " + f.QualifiedName())
	}
	b.WriteString("\n")
	return b.String()
}

// TestParallelDeterminism is the engine's core guarantee: analysis of the
// full corpus yields byte-identical dead-member lists, reasons, and
// witnesses at GOMAXPROCS (and worker counts) 1, 4, and N — and a cached
// re-analysis equals a fresh one.
func TestParallelDeterminism(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	configs := []int{1, 4, n}

	for _, bm := range bench.All() {
		var want string
		for _, procs := range configs {
			prev := runtime.GOMAXPROCS(procs)
			c := engine.Compile(engine.Config{Workers: procs}, bm.Sources...)
			if err := c.Err(); err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("%s: %v", bm.Name, err)
			}
			got := renderResult(c.Analyze(deadmember.Options{CallGraph: callgraph.RTA}))

			// A second analysis of the same compilation hits the cached
			// call graph; it must equal the fresh one exactly.
			again := renderResult(c.Analyze(deadmember.Options{CallGraph: callgraph.RTA}))
			runtime.GOMAXPROCS(prev)
			if got != again {
				t.Fatalf("%s: cached re-analysis differs from fresh at %d workers", bm.Name, procs)
			}

			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("%s: result at %d workers differs from sequential:\n--- want ---\n%s--- got ---\n%s",
					bm.Name, procs, want, got)
			}
		}

		// The engine must also agree byte-for-byte with the original
		// sequential frontend + analysis path.
		fr := frontend.Compile(bm.Sources...)
		if err := fr.Err(); err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		seed := renderResult(deadmember.Analyze(fr.Program, fr.Graph, deadmember.Options{CallGraph: callgraph.RTA}))
		if seed != want {
			t.Fatalf("%s: engine result differs from the sequential frontend path", bm.Name)
		}
	}
}

// TestParallelDeterminismAcrossOptions repeats the check for the ablation
// variants whose reasons are the most order-sensitive (writes-are-uses
// marks on every write; conservative sizeof fans out MarkAllContained).
func TestParallelDeterminismAcrossOptions(t *testing.T) {
	bm, err := bench.ByName("jikes")
	if err != nil {
		t.Fatal(err)
	}
	variants := []deadmember.Options{
		{CallGraph: callgraph.ALL},
		{CallGraph: callgraph.CHA},
		{CallGraph: callgraph.RTA, WritesAreUses: true},
		{CallGraph: callgraph.RTA, Sizeof: deadmember.SizeofConservative},
		{CallGraph: callgraph.RTA, NoDeleteSpecialCase: true},
	}
	for vi, opts := range variants {
		var want string
		for _, workers := range []int{1, 3, 8} {
			c := engine.Compile(engine.Config{Workers: workers}, bm.Sources...)
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
			got := renderResult(c.Analyze(opts))
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("variant %d: result at %d workers diverges", vi, workers)
			}
		}
	}
}

// TestSessionCompileOnce checks the content-hash cache: identical sources
// compile once, different sources miss, and the cached Compilation is the
// same artifact (so its call-graph cache is shared too).
func TestSessionCompileOnce(t *testing.T) {
	s := engine.NewSession(engine.Config{})
	src := frontend.Source{Name: "a.mcc", Text: "class A { public: int x; A() : x(1) {} }; int main() { A a; return 0; }"}

	c1 := s.Compile(src)
	c2 := s.Compile(src)
	if c1 != c2 {
		t.Fatal("identical sources should return the cached Compilation")
	}
	if st := s.Stats(); st.Compiles != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 compile / 1 hit", st)
	}

	// A one-byte change is a different program.
	src2 := src
	src2.Text = strings.Replace(src.Text, "x(1)", "x(2)", 1)
	c3 := s.Compile(src2)
	if c3 == c1 {
		t.Fatal("changed source must not hit the cache")
	}
	if st := s.Stats(); st.Compiles != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 compiles / 1 hit", st)
	}

	// A cached re-analysis equals a fresh, uncached one.
	fresh := engine.Compile(engine.Config{}, src)
	if renderResult(c1.Analyze(deadmember.Options{})) != renderResult(fresh.Analyze(deadmember.Options{})) {
		t.Fatal("cached compilation's analysis differs from a fresh compile")
	}
}

// TestCallGraphCacheKeysLibraryNames: the call-graph cache must keep
// library lists apart even when a name embeds what a naive join would
// use as its separator — ["A\x00B"] is one class, ["A","B"] two.
func TestCallGraphCacheKeysLibraryNames(t *testing.T) {
	c := engine.Compile(engine.Config{}, frontend.Source{Name: "a.mcc", Text: "class A { public: int x; A() : x(1) {} }; int main() { A a; return 0; }"})
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for _, libs := range [][]string{{"A\x00B"}, {"A", "B"}, {"A B"}} {
		if _, timings := c.AnalyzeTimed(deadmember.Options{LibraryClasses: libs}); timings.CallGraphCached {
			t.Fatalf("library list %q served another list's call graph", libs)
		}
	}
}

// TestStripConsumesCompilation: the strip transform rewrites the ASTs, so
// the session must treat the compilation as evicted and recompile.
func TestStripConsumesCompilation(t *testing.T) {
	s := engine.NewSession(engine.Config{})
	src := frontend.Source{Name: "s.mcc", Text: `
class Box { public: int used; int unused; Box() : used(1), unused(2) {} };
int main() { Box b; return b.used; }
`}
	c1 := s.Compile(src)
	out := c1.Strip(deadmember.Options{}, strip.Options{})
	if len(out.RemovedMembers) != 1 || out.RemovedMembers[0] != "Box::unused" {
		t.Fatalf("strip removed %v, want [Box::unused]", out.RemovedMembers)
	}
	if !c1.Consumed() {
		t.Fatal("compilation should be consumed after Strip")
	}
	c2 := s.Compile(src)
	if c2 == c1 {
		t.Fatal("session must recompile a consumed compilation")
	}
	if st := s.Stats(); st.Compiles != 2 {
		t.Fatalf("stats = %+v, want 2 compiles", st)
	}
	// The recompiled artifact still analyzes correctly.
	res := c2.Analyze(deadmember.Options{})
	if got := len(res.DeadMembers()); got != 1 {
		t.Fatalf("recompiled analysis found %d dead members, want 1", got)
	}
}

// TestParallelParseDiagnosticsDeterministic: per-file diagnostic lists
// are merged in file order, so error reports are identical at any worker
// count — including which file's error comes first.
func TestParallelParseDiagnosticsDeterministic(t *testing.T) {
	sources := []frontend.Source{
		{Name: "one.mcc", Text: "class A { public: int x; };\nint broken1() { return $; }\n"},
		{Name: "two.mcc", Text: "int broken2() { return @; }\n"},
		{Name: "three.mcc", Text: "class B : public A { public: int y; };\nint broken3() { return #; }\nint main() { return 0; }\n"},
	}
	var want string
	for _, workers := range []int{1, 2, 8} {
		c := engine.Compile(engine.Config{Workers: workers}, sources...)
		err := c.Err()
		if err == nil {
			t.Fatal("expected parse errors")
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("diagnostics at %d workers differ:\n--- want ---\n%s\n--- got ---\n%s", workers, want, err.Error())
		}
	}
}

// TestMultiFileEngineCompile: cross-file type references survive the
// parallel prescan/parse split.
func TestMultiFileEngineCompile(t *testing.T) {
	sources := []frontend.Source{
		{Name: "lib.mcc", Text: "class Vec { public: int x; int pad; Vec() : x(3), pad(0) {} };"},
		{Name: "app.mcc", Text: "int main() { Vec v; return v.x - 3; }"},
	}
	c := engine.Compile(engine.Config{Workers: 4}, sources...)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	res := c.Analyze(deadmember.Options{})
	dead := res.DeadMembers()
	if len(dead) != 1 || dead[0].QualifiedName() != "Vec::pad" {
		t.Fatalf("dead = %v, want [Vec::pad]", dead)
	}
	if r, err := c.Run(); err != nil || r.ExitCode != 0 {
		t.Fatalf("run: %v exit=%d", err, r.ExitCode)
	}
}

// Benchmarks regenerating each exhibit of the paper's evaluation, plus
// micro-benchmarks for the pipeline stages. Run with:
//
//	go test -bench=. -benchmem
package deadmembers_test

import (
	"fmt"
	"strings"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/engine"
	"deadmembers/internal/frontend"
	"deadmembers/internal/lexer"
	"deadmembers/internal/parser"
	"deadmembers/internal/report"
	"deadmembers/internal/source"
)

// BenchmarkTable1 measures producing the benchmark-characteristics table:
// compiling every corpus program and counting classes/members.
func BenchmarkTable1(b *testing.B) {
	corpus := bench.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bm := range corpus {
			r := frontend.Compile(bm.Sources...)
			if err := r.Err(); err != nil {
				b.Fatal(err)
			}
			res := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
			if s := res.Stats(); s.Members == 0 {
				b.Fatal("no members")
			}
		}
	}
}

// BenchmarkFigure3 measures the static analysis (the paper's algorithm
// proper) per corpus benchmark, excluding frontend time.
func BenchmarkFigure3(b *testing.B) {
	for _, bm := range bench.All() {
		r := frontend.Compile(bm.Sources...)
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
				_ = res.Stats()
			}
		})
	}
}

// BenchmarkTable2 measures the full dynamic pipeline (analysis plus
// instrumented execution) per corpus benchmark — the cost of one Table 2
// row.
func BenchmarkTable2(b *testing.B) {
	for _, bm := range bench.All() {
		r := frontend.Compile(bm.Sources...)
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
		res := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dynprof.Run(res, dynprof.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4 measures deriving the Figure 4 percentages, including
// the rendering, for the whole corpus.
func BenchmarkFigure4(b *testing.B) {
	results, err := report.CollectAll()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := report.Figure4(results); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkAblationCallGraph measures the call-graph ablation (ALL vs CHA
// vs RTA) on the largest corpus benchmark.
func BenchmarkAblationCallGraph(b *testing.B) {
	bm, err := bench.ByName("jikes")
	if err != nil {
		b.Fatal(err)
	}
	r := frontend.Compile(bm.Sources...)
	if err := r.Err(); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []callgraph.Mode{callgraph.ALL, callgraph.CHA, callgraph.RTA} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: mode})
				_ = res.Stats()
			}
		})
	}
}

// BenchmarkEngineSequentialVsParallel compares one full engine pass
// (compile + RTA analysis) over the whole corpus with a sequential
// pipeline against the parallel parse and liveness stages.
func BenchmarkEngineSequentialVsParallel(b *testing.B) {
	for _, workers := range []int{1, 0} { // 1 = sequential, 0 = all cores
		name := "sequential"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, bm := range bench.All() {
					c := engine.Compile(engine.Config{Workers: workers}, bm.Sources...)
					if err := c.Err(); err != nil {
						b.Fatal(err)
					}
					res := c.Analyze(deadmember.Options{CallGraph: callgraph.RTA})
					if s := res.Stats(); s.Members == 0 {
						b.Fatal("no members")
					}
				}
			}
		})
	}
}

// BenchmarkAblationCompileOnceVsRecompile measures the tentpole win: the
// six-variant ablation sweep over the corpus, either recompiling every
// benchmark per variant (the seed's behaviour) or compiling once per
// benchmark and reusing the Compilation — with the RTA variants also
// sharing one cached call graph.
func BenchmarkAblationCompileOnceVsRecompile(b *testing.B) {
	variants := []deadmember.Options{
		{CallGraph: callgraph.RTA},
		{CallGraph: callgraph.CHA},
		{CallGraph: callgraph.ALL},
		{CallGraph: callgraph.RTA, WritesAreUses: true},
		{CallGraph: callgraph.RTA, Sizeof: deadmember.SizeofConservative},
		{CallGraph: callgraph.RTA, NoDeleteSpecialCase: true},
	}
	b.Run("recompile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, bm := range bench.All() {
				for _, opts := range variants {
					r := frontend.Compile(bm.Sources...)
					if err := r.Err(); err != nil {
						b.Fatal(err)
					}
					_ = deadmember.Analyze(r.Program, r.Graph, opts).Stats()
				}
			}
		}
	})
	b.Run("compile-once", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			session := engine.NewSession(engine.Config{})
			for _, bm := range bench.All() {
				c := session.Compile(bm.Sources...)
				if err := c.Err(); err != nil {
					b.Fatal(err)
				}
				for _, opts := range variants {
					_ = c.Analyze(opts).Stats()
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Pipeline-stage micro-benchmarks

func jikesSource(b *testing.B) frontend.Source {
	b.Helper()
	bm, err := bench.ByName("jikes")
	if err != nil {
		b.Fatal(err)
	}
	return bm.Sources[0]
}

func BenchmarkLexer(b *testing.B) {
	src := jikesSource(b)
	b.SetBytes(int64(len(src.Text)))
	for i := 0; i < b.N; i++ {
		fset := source.NewFileSet()
		f := fset.AddFile(src.Name, src.Text)
		diags := source.NewDiagnosticList(fset)
		toks := lexer.ScanAll(f, diags)
		if len(toks) == 0 || diags.HasErrors() {
			b.Fatal("lex failed")
		}
	}
}

func BenchmarkParser(b *testing.B) {
	src := jikesSource(b)
	b.SetBytes(int64(len(src.Text)))
	for i := 0; i < b.N; i++ {
		fset := source.NewFileSet()
		f := fset.AddFile(src.Name, src.Text)
		diags := source.NewDiagnosticList(fset)
		file := parser.ParseFile(f, diags)
		if file == nil || diags.HasErrors() {
			b.Fatal("parse failed")
		}
	}
}

func BenchmarkFrontend(b *testing.B) {
	src := jikesSource(b)
	b.SetBytes(int64(len(src.Text)))
	for i := 0; i < b.N; i++ {
		r := frontend.Compile(src)
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallGraphRTA measures RTA construction on jikes and on a
// 3200-class generated program (the shape of BenchmarkAnalysisScaling).
func BenchmarkCallGraphRTA(b *testing.B) {
	large, _ := bench.Generate(scalingSpec(3200))
	for _, src := range []frontend.Source{jikesSource(b), {Name: "classes=3200.mcc", Text: large}} {
		r := frontend.Compile(src)
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
		b.Run(strings.TrimSuffix(src.Name, ".mcc"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := callgraph.Build(r.Program, r.Graph, callgraph.Options{Mode: callgraph.RTA})
				if len(g.Reachable) == 0 {
					b.Fatal("empty call graph")
				}
			}
		})
	}
}

func BenchmarkInterpRichards(b *testing.B) {
	bm, err := bench.ByName("richards")
	if err != nil {
		b.Fatal(err)
	}
	r := frontend.Compile(bm.Sources...)
	if err := r.Err(); err != nil {
		b.Fatal(err)
	}
	res := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := dynprof.Run(res, dynprof.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if prof.Exec.ExitCode != 0 {
			b.Fatal("richards failed")
		}
	}
}

// scalingSpec is the generator setting of a scaling probe with the given
// number of classes.
func scalingSpec(classes int) bench.Spec {
	return bench.Spec{
		Name: "scale", Description: "scaling probe",
		Classes: classes, UsedClasses: classes * 3 / 4,
		Members: classes * 4, DeadPercent: 10,
		Allocations: 10, RetainMod: 1, DeadHeavyClasses: 3,
		Seed: uint64(classes),
	}
}

// BenchmarkAnalysisScaling measures how analysis time grows with program
// size. The paper's §3.4 argues the algorithm is effectively linear:
// O(N + C×M) for N expressions, C classes, M distinct member names.
// Compare ns/op across the sub-benchmarks: time per class should stay
// near-constant.
func BenchmarkAnalysisScaling(b *testing.B) {
	for _, classes := range []int{25, 50, 100, 200, 400, 800, 1600, 3200} {
		src, _ := bench.Generate(scalingSpec(classes))
		r := frontend.Compile(frontend.Source{Name: "scale.mcc", Text: src})
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("classes=%d", classes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := deadmember.Analyze(r.Program, r.Graph, deadmember.Options{CallGraph: callgraph.RTA})
				if res.Stats().Members == 0 {
					b.Fatal("analysis saw no members")
				}
			}
		})
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		all := bench.All()
		if len(all) != 11 {
			b.Fatal("bad corpus")
		}
	}
}

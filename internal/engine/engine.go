// Package engine is the staged analysis pipeline behind the public API:
//
//	Lex/Parse → Sema → CallGraph → Liveness → Profile/Strip
//
// It exists so callers compile once and analyze many times. The frontend
// stages produce an explicit Compilation artifact; the analysis stages run
// against it under any number of deadmember.Options without re-lexing,
// re-parsing, or re-typechecking. On top of that the engine provides:
//
//   - parallel per-file parsing through a bounded worker pool;
//   - a parallel liveness pass (see internal/deadmember/parallel.go) whose
//     Result is byte-identical regardless of worker count;
//   - a per-Compilation call-graph cache keyed by the options that affect
//     graph construction (mode + library classes), so ablation sweeps that
//     vary only marking rules share one graph;
//   - a content-hash-keyed Session cache (see session.go) so repeated
//     compilations of identical sources skip the frontend entirely;
//   - wall-clock timings for every stage, so speedups are observable
//     without a profiler.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"deadmembers/internal/ast"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/failure"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/lexer"
	"deadmembers/internal/lint"
	"deadmembers/internal/parser"
	"deadmembers/internal/sema"
	"deadmembers/internal/source"
	"deadmembers/internal/strip"
	"deadmembers/internal/types"
)

// Source is one named MC++ source file (re-exported from package source so
// engine callers need only this package).
type Source = source.Source

// Config controls pipeline execution, never results.
type Config struct {
	// Workers bounds the parallelism of the parse and liveness stages.
	// 0 means GOMAXPROCS; 1 forces sequential execution.
	Workers int

	// ParseFault, when non-nil, runs inside each parse worker's
	// containment boundary just before the named file is parsed. Tests
	// use it to inject a panic into a chosen parse worker.
	ParseFault func(fileName string)

	// FuncFault, when non-nil, is passed to the liveness pass as
	// deadmember.Exec.FuncFault (fault injection into a liveness shard).
	FuncFault func(*types.Func)

	// LintFault, when non-nil, is passed to the lint pass as
	// lint.Exec.FuncFault (fault injection into a lint worker).
	LintFault func(*types.Func)

	// lexFault, when non-nil, runs inside each lex worker's containment
	// boundary just before the named file is lexed. It is unexported:
	// only this package's tests inject a fault there.
	lexFault func(fileName string)
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Timings records per-stage wall-clock durations. Parse and Sema are
// properties of the Compilation; CallGraph and Liveness of one Analyze
// call (CallGraph is zero when the graph came from the per-compilation
// cache, flagged by CallGraphCached).
type Timings struct {
	Parse     time.Duration // lexing + type prescan + parsing (parallel wall clock)
	Sema      time.Duration
	CallGraph time.Duration
	Liveness  time.Duration
	Lint      time.Duration // flow-sensitive pass; zero unless Lint ran

	CallGraphCached bool
	// LintCached reports that the lint result came from the
	// per-compilation cache (Lint is zero then).
	LintCached bool
}

// Add accumulates other into t (for corpus-wide summaries).
func (t *Timings) Add(other Timings) {
	t.Parse += other.Parse
	t.Sema += other.Sema
	t.CallGraph += other.CallGraph
	t.Liveness += other.Liveness
	t.Lint += other.Lint
}

// Total sums the stage durations.
func (t Timings) Total() time.Duration {
	return t.Parse + t.Sema + t.CallGraph + t.Liveness + t.Lint
}

// Compilation is the immutable artifact of the frontend stages: a typed
// program plus everything needed to analyze it repeatedly.
type Compilation struct {
	Program   *types.Program
	Hierarchy *hierarchy.Graph
	FileSet   *source.FileSet
	Diags     *source.DiagnosticList

	// Sources are the inputs, retained so transforms can recompile.
	Sources []Source

	// Fingerprint is the content hash keying the session cache.
	Fingerprint string

	// Failures records panics contained during the frontend stages (one
	// per faulted parse worker, or one for a faulted sema pass). The
	// faulted unit's results are replaced by an empty salvage value and
	// every other unit's results are kept, so the artifact is usable but
	// Degraded: treat its analysis output as incomplete.
	Failures []*failure.Failure

	cfg       Config
	timings   Timings // Parse + Sema only
	consumed  bool    // set by StripContext: the ASTs were mutated
	cancelErr error   // context error that aborted Compile, if any

	mu     sync.Mutex
	graphs map[string]*callgraph.Graph
	lints  map[string]*lintEntry
}

// lintEntry is one cached lint result plus the wall clock of the run
// that produced it.
type lintEntry struct {
	res  *lint.Result
	took time.Duration
}

// Err returns an error if the compile was cancelled or any frontend phase
// reported errors. Contained panics are NOT errors — they mark the
// artifact Degraded while the diagnostics stay about the source program.
func (c *Compilation) Err() error {
	if c.cancelErr != nil {
		return c.cancelErr
	}
	return c.Diags.Err()
}

// CancelErr returns the context error that aborted Compile, or nil.
func (c *Compilation) CancelErr() error { return c.cancelErr }

// Degraded reports whether a frontend stage faulted and was contained.
func (c *Compilation) Degraded() bool { return len(c.Failures) > 0 }

// Timings returns the frontend stage durations of this compilation.
func (c *Compilation) Timings() Timings { return c.timings }

// Compile runs the frontend stages over sources: parallel per-file lexing
// with a type-name prescan over the same tokens, parallel per-file parsing
// of those tokens (per-file diagnostic lists merged in file order, so
// diagnostics are deterministic), then semantic analysis.
// The result always carries a (possibly partial) program; check Err
// before trusting it.
func Compile(cfg Config, sources ...Source) *Compilation {
	return CompileContext(context.Background(), cfg, sources...)
}

// CompileContext is Compile under a context. Cancellation is checked
// cooperatively between work items in the parse worker pool and between
// stages; a cancelled compile returns early with CancelErr set (and Err
// returning it). Each lex and parse worker and the sema stage run inside a
// recover boundary: a panic is converted into a structured Failure, the
// faulted file salvaged as an empty AST (or the program as an empty
// program for sema), and every other file's results kept.
func CompileContext(ctx context.Context, cfg Config, sources ...Source) *Compilation {
	c := &Compilation{
		Sources:     sources,
		Fingerprint: fingerprint(sources),
		cfg:         cfg,
		graphs:      map[string]*callgraph.Graph{},
		lints:       map[string]*lintEntry{},
	}
	workers := cfg.workers()

	parseStart := time.Now()
	fset := source.NewFileSet()
	diags := source.NewDiagnosticList(fset)
	c.FileSet = fset
	c.Diags = diags
	srcFiles := make([]*source.File, len(sources))
	oversized := make([]bool, len(sources))
	for i, s := range sources {
		srcFiles[i] = fset.AddFile(s.Name, s.Text)
		if err := srcFiles[i].CheckSize(); err != nil {
			oversized[i] = true
			diags.Errorf(srcFiles[i].Pos(0), "%v", err)
		}
	}

	// Stage 1a: lex every file once and collect the type names it
	// declares, so class names declared in one file are known while
	// parsing the others. A file's lex diagnostics wait in its own list
	// until the file is parsed. A panicking worker is contained like a
	// parse fault: its file degrades to an empty AST with no diagnostics.
	toks := make([][]lexer.Token, len(srcFiles))
	lexDiags := make([]*source.DiagnosticList, len(srcFiles))
	typeSets := make([]map[string]bool, len(srcFiles))
	fileFails := make([]*failure.Failure, len(srcFiles))
	ok := parallelFor(ctx, workers, len(srcFiles), func(i int) {
		if oversized[i] {
			return
		}
		name := srcFiles[i].Name()
		fileFails[i] = failure.Catch("parse", name, func() {
			if cfg.lexFault != nil {
				cfg.lexFault(name)
			}
			lexDiags[i] = source.NewDiagnosticList(fset)
			toks[i] = lexer.ScanAll(srcFiles[i], lexDiags[i])
			typeSets[i] = parser.TypeNames(srcFiles[i], toks[i])
		})
	})
	if !ok {
		return c.cancelled(ctx)
	}
	allTypes := map[string]bool{}
	for _, set := range typeSets {
		for name := range set {
			allTypes[name] = true
		}
	}

	// Stage 1b: parse each file's tokens independently into its own
	// diagnostic list, behind its lex diagnostics; merge in file order
	// afterwards. A file's tokens are dropped once it is parsed, so none
	// are live during sema. A panicking worker is contained: its file
	// degrades to an empty AST (plus the diagnostics it reported before
	// faulting, which are deterministic), and a structured Failure
	// records the fault.
	files := make([]*ast.File, len(srcFiles))
	fileDiags := make([]*source.DiagnosticList, len(srcFiles))
	ok = parallelFor(ctx, workers, len(srcFiles), func(i int) {
		fileDiags[i] = source.NewDiagnosticList(fset)
		name := srcFiles[i].Name()
		if oversized[i] || fileFails[i] != nil {
			files[i] = &ast.File{Name: name}
			return
		}
		fileFails[i] = failure.Catch("parse", name, func() {
			if cfg.ParseFault != nil {
				cfg.ParseFault(name)
			}
			fileDiags[i].Extend(lexDiags[i])
			files[i] = parser.ParseTokens(srcFiles[i], toks[i], fileDiags[i], allTypes)
		})
		toks[i], lexDiags[i] = nil, nil
		if files[i] == nil {
			files[i] = &ast.File{Name: name}
		}
	})
	for i, dl := range fileDiags {
		if dl != nil {
			diags.Extend(dl)
		}
		if fileFails[i] != nil {
			c.Failures = append(c.Failures, fileFails[i])
		}
	}
	c.timings.Parse = time.Since(parseStart)
	if !ok {
		return c.cancelled(ctx)
	}

	// Stage 2: semantic analysis (whole-program, sequential). A panic
	// degrades the compilation to an empty program; the parse diagnostics
	// are kept.
	semaStart := time.Now()
	var prog *types.Program
	var graph *hierarchy.Graph
	if f := failure.Catch("sema", "program", func() {
		prog, graph = sema.Check(fset, files, diags)
	}); f != nil {
		c.Failures = append(c.Failures, f)
		prog, graph = sema.Check(fset, nil, diags)
	}
	c.timings.Sema = time.Since(semaStart)

	c.Program = prog
	c.Hierarchy = graph
	return c
}

// cancelled finalizes a compilation aborted by ctx: a well-formed but
// empty artifact whose Err and CancelErr report the context error.
func (c *Compilation) cancelled(ctx context.Context) *Compilation {
	c.cancelErr = ctx.Err()
	prog, graph := sema.Check(c.FileSet, nil, source.NewDiagnosticList(c.FileSet))
	c.Program = prog
	c.Hierarchy = graph
	return c
}

// parallelFor runs fn(0..n-1) on up to `workers` goroutines, stopping
// early — between items, never mid-item — once ctx is cancelled. It
// reports whether every item ran. With one worker (or one item) it runs
// inline, keeping single-threaded traces clean.
func parallelFor(ctx context.Context, workers, n int, fn func(int)) bool {
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
					continue // drain without working; feeder stops soon
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

// graphKey identifies the options that affect call-graph construction:
// the mode and the library-class designation (whose virtual overriders
// become extra roots). Marking rules (sizeof, delete, writes-are-uses,
// downcasts) do not change the graph and share cache entries. Library
// names are quoted, so no name can forge a separator and ["A B"],
// ["A\x00B"] and ["A","B"] all key differently.
func graphKey(opts deadmember.Options) string {
	return fmt.Sprintf("%s lib=%q", opts.CallGraph, opts.LibraryClasses)
}

// graphFor returns the call graph for opts, building and caching it on
// first use. The build runs under the compilation lock: hierarchy lookup
// caches are lazily populated during construction, so concurrent builds
// must be serialized.
func (c *Compilation) graphFor(opts deadmember.Options) (g *callgraph.Graph, cached bool, took time.Duration) {
	key := graphKey(opts)
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.graphs[key]; ok {
		return g, true, 0
	}
	start := time.Now()
	g = deadmember.BuildGraph(c.Program, c.Hierarchy, opts)
	took = time.Since(start)
	c.graphs[key] = g
	return g, false, took
}

// AnalyzeContext runs the dead-data-member analysis against the
// compilation. Repeated calls under different Options reuse the frontend
// artifact (and the call graph, when only marking rules differ).
// Cancellation is polled between functions of the liveness pass, and an
// interrupted run returns the context's error (the partial result must
// not be trusted).
func (c *Compilation) AnalyzeContext(ctx context.Context, opts deadmember.Options) (*deadmember.Result, error) {
	res, _, err := c.AnalyzeTimedContext(ctx, opts)
	return res, err
}

// AnalyzeTimedContext is AnalyzeContext plus the per-stage wall-clock
// timings of this call (Parse/Sema are the compilation's,
// CallGraph/Liveness this run's).
func (c *Compilation) AnalyzeTimedContext(ctx context.Context, opts deadmember.Options) (*deadmember.Result, Timings, error) {
	t := c.timings
	if err := ctx.Err(); err != nil {
		return nil, t, err
	}
	g, cached, graphTime := c.graphFor(opts)
	t.CallGraph = graphTime
	t.CallGraphCached = cached

	liveStart := time.Now()
	res := deadmember.AnalyzeWith(c.Program, c.Hierarchy, opts, deadmember.Exec{
		Workers:   c.cfg.workers(),
		Graph:     g,
		Ctx:       ctx,
		FuncFault: c.cfg.FuncFault,
	})
	t.Liveness = time.Since(liveStart)
	if res.Interrupted {
		return nil, t, ctx.Err()
	}
	return res, t, nil
}

// LintContext runs the flow-sensitive diagnostics (dead-store and
// write-only-member checks) on top of a fresh analysis, returning the
// per-stage timings of this call (Lint is the flow-sensitive pass's
// wall clock; a repeated call with the same options is served from the
// per-compilation cache and flagged LintCached). An interrupted run
// returns the context's error and a nil result.
func (c *Compilation) LintContext(ctx context.Context, opts deadmember.Options, lopts lint.Options) (*lint.Result, Timings, error) {
	ar, t, err := c.AnalyzeTimedContext(ctx, opts)
	if err != nil {
		return nil, t, err
	}
	lres, took, cached, err := c.lintAnalyzed(ctx, ar, lopts)
	t.Lint = took
	t.LintCached = cached
	return lres, t, err
}

// LintAnalyzed lints an existing analysis result, reusing its call
// graph and dead set instead of re-running liveness. It returns the
// pass's wall clock so callers can fold it into their Timings (zero on
// a lint-cache hit).
func (c *Compilation) LintAnalyzed(ctx context.Context, ar *deadmember.Result, lopts lint.Options) (*lint.Result, time.Duration, error) {
	res, took, _, err := c.lintAnalyzed(ctx, ar, lopts)
	return res, took, err
}

// lintKey identifies everything that can change a lint result: every
// analysis option (call graph, marking rules, libraries) and the lint
// budget. Library names are quoted for the same reason as in graphKey.
// A field added to deadmember.Options must be added here too.
func lintKey(opts deadmember.Options, lopts lint.Options) string {
	return fmt.Sprintf("%s sizeof=%d nodelete=%t downcasts=%t writesareuses=%t lib=%q budget=%d",
		opts.CallGraph, opts.Sizeof, opts.NoDeleteSpecialCase, opts.TrustDowncasts,
		opts.WritesAreUses, opts.LibraryClasses, lopts.Budget)
}

func (c *Compilation) lintAnalyzed(ctx context.Context, ar *deadmember.Result, lopts lint.Options) (*lint.Result, time.Duration, bool, error) {
	key := lintKey(ar.Options, lopts)
	c.mu.Lock()
	if e, ok := c.lints[key]; ok {
		c.mu.Unlock()
		return e.res, 0, true, nil
	}
	c.mu.Unlock()

	start := time.Now()
	res := lint.RunWith(ar, lopts, lint.Exec{
		Workers:   c.cfg.workers(),
		Ctx:       ctx,
		FuncFault: c.cfg.LintFault,
	})
	took := time.Since(start)
	if res.Interrupted {
		return nil, took, false, ctx.Err()
	}
	// Cache only clean results: degraded ones may reflect injected
	// faults, and interrupted ones are partial.
	if !res.Degraded() {
		c.mu.Lock()
		c.lints[key] = &lintEntry{res: res, took: took}
		c.mu.Unlock()
	}
	return res, took, false, nil
}

// StripContext analyzes and applies the dead-member elimination
// transform. The analysis polls ctx; a panic inside the transform itself
// is contained and returned as an error.
//
// The transform consumes the compilation: it rewrites the ASTs in place
// (see strip.Apply), so this compilation must not be analyzed or executed
// afterwards — recompile Result.Sources instead. Session caches treat a
// consumed compilation as evicted. A compilation whose analysis was
// cancelled is not consumed; one whose transform panicked is (its ASTs
// may be half-rewritten).
func (c *Compilation) StripContext(ctx context.Context, opts deadmember.Options, sopts strip.Options) (*strip.Result, error) {
	res, err := c.AnalyzeContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.consumed = true
	c.mu.Unlock()
	var out *strip.Result
	if f := failure.Catch("strip", "program", func() {
		out = strip.Apply(res, sopts)
	}); f != nil {
		return nil, f
	}
	return out, nil
}

// Consumed reports whether StripContext has invalidated this compilation.
func (c *Compilation) Consumed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.consumed
}

// Fingerprint returns the content hash that keys the session cache (and
// the server's persistent artifact store) for sources, without
// compiling them.
func Fingerprint(sources ...Source) string { return fingerprint(sources) }

// fingerprint hashes the source names and texts (length-prefixed, so
// concatenation ambiguities cannot collide) into a stable hex key.
func fingerprint(sources []Source) string {
	h := sha256.New()
	var lenBuf [8]byte
	writePart := func(s string) {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	for _, s := range sources {
		writePart(s.Name)
		writePart(s.Text)
	}
	return hex.EncodeToString(h.Sum(nil))
}

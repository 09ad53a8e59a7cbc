// Package deadmembers is the public API of this repository: a from-scratch
// reproduction of Sweeney & Tip, "A Study of Dead Data Members in C++
// Applications" (PLDI 1998).
//
// The library compiles MC++ (a substantial C++ subset), detects data
// members that are guaranteed dead — removable without changing observable
// behaviour — and measures, by executing the program on a built-in
// interpreter with an instrumented heap, how much object space those dead
// members occupy at run time.
//
// The pipeline is staged: Compile runs the frontend once and returns a
// Compilation that can be analyzed, linted, profiled, or run many times
// under different Options without re-lexing, re-parsing, or
// re-typechecking. Every operation takes a context first; its
// cancellation or deadline bounds the whole stage:
//
//	comp, err := deadmembers.Compile(ctx, deadmembers.CompileConfig{},
//	    deadmembers.Source{Name: "app.mcc", Text: src})
//	result, _, err := comp.Analyze(ctx, deadmembers.Options{})
//	for _, f := range result.DeadMembers() {
//	    fmt.Println(f.QualifiedName())
//	}
//	ablated, _, err := comp.Analyze(ctx, deadmembers.Options{WritesAreUses: true})
//	profile, err := comp.Profile(ctx, deadmembers.Options{})
//	fmt.Println(profile.Ledger.DeadPercent())
//
// Strip is the one operation that consumes its Compilation.
//
// The internal packages implement the full pipeline: lexer, parser, type
// checker, class hierarchy (member lookup + object layout), call graphs
// (ALL/CHA/RTA), the paper's detection algorithm, the interpreter, and
// the staged engine (internal/engine) with its parallel parse/liveness
// stages and compile-once session cache.
package deadmembers

import (
	"context"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/engine"
	"deadmembers/internal/failure"
	"deadmembers/internal/interp"
	"deadmembers/internal/lint"
	"deadmembers/internal/source"
	"deadmembers/internal/strip"
)

// Source is one named MC++ source file.
type Source = source.Source

// CallGraphMode selects call-graph precision. The zero value is RTA, the
// paper's configuration.
type CallGraphMode int

// Call graph modes, in decreasing order of precision.
const (
	CallGraphRTA CallGraphMode = iota
	CallGraphCHA
	CallGraphALL
)

func (m CallGraphMode) internal() callgraph.Mode {
	switch m {
	case CallGraphCHA:
		return callgraph.CHA
	case CallGraphALL:
		return callgraph.ALL
	default:
		return callgraph.RTA
	}
}

// Engine selects how MC++ programs are executed: the tree-walking
// interpreter (the default) or the bytecode VM with inline caches. Both
// engines produce byte-identical observable behaviour — output, exit
// codes, step counts, and instrumented heap records — so the choice is
// purely a performance knob.
type Engine = engine.Engine

// Execution engines.
const (
	EngineTree = engine.EngineTree
	EngineVM   = engine.EngineVM
)

// ParseEngine parses an -engine flag value ("tree" or "vm").
func ParseEngine(s string) (Engine, error) { return engine.ParseEngine(s) }

// SizeofPolicy controls how sizeof expressions are treated (paper §3.2).
type SizeofPolicy = deadmember.SizeofPolicy

// Sizeof policies. SizeofIgnore is the paper's benchmark setting.
const (
	SizeofIgnore       = deadmember.SizeofIgnore
	SizeofConservative = deadmember.SizeofConservative
)

// Options configures analysis, profiling, and execution. The zero value
// reproduces the paper's configuration: RTA call graph, sizeof ignored,
// delete/free special case enabled, downcasts treated conservatively.
type Options struct {
	// CallGraph selects the call-graph algorithm (default RTA).
	CallGraph CallGraphMode

	// Sizeof selects the sizeof policy (default SizeofIgnore).
	Sizeof SizeofPolicy

	// NoDeleteSpecialCase disables the delete/free rule (ablation).
	NoDeleteSpecialCase bool

	// TrustDowncasts disables the unsafe-cast rule for downcasts that the
	// user has verified safe (the paper verified all of its benchmarks').
	TrustDowncasts bool

	// WritesAreUses makes every write access mark a member live, the way a
	// naive "is it mentioned?" analysis would. The paper's §2 definition —
	// a member is dead when only written, because "data members are
	// typically initialized with a value in a constructor" — is exactly
	// what this switch disables; turning it on quantifies how few members
	// would be reported dead without the write/read distinction (ablation).
	WritesAreUses bool

	// LibraryClasses names classes whose source is nominally unavailable;
	// their members are unclassifiable and their virtual methods'
	// overriders become call-graph roots.
	LibraryClasses []string

	// MaxSteps bounds interpreter execution in Profile and Run
	// (0 = default).
	MaxSteps int64

	// Engine selects the execution engine for Profile and Run (default
	// EngineTree). Output and profile are byte-identical either way.
	Engine Engine
}

func (o Options) analysisOptions() deadmember.Options {
	return deadmember.Options{
		CallGraph:           o.CallGraph.internal(),
		Sizeof:              o.Sizeof,
		NoDeleteSpecialCase: o.NoDeleteSpecialCase,
		TrustDowncasts:      o.TrustDowncasts,
		WritesAreUses:       o.WritesAreUses,
		LibraryClasses:      o.LibraryClasses,
	}
}

// Result is a completed static analysis (see internal/deadmember for the
// full accessor set).
type Result = deadmember.Result

// Failure is a structured record of a panic contained by the pipeline:
// the stage and unit that crashed, the recovered value, and a stable
// stack digest. Failures never abort a run — the artifact is salvaged
// and marked degraded instead.
type Failure = failure.Failure

// LintOptions configures the flow-sensitive lint pass.
type LintOptions struct {
	// Budget caps dataflow solver steps per function (0 = automatic).
	Budget int
}

// LintFinding is one flow-sensitive diagnostic.
type LintFinding = lint.Finding

// LintResult is a completed lint run: position-sorted findings plus the
// degradation record (contained panics and budget overruns).
type LintResult = lint.Result

// Profile is a completed dynamic measurement.
type Profile = dynprof.Profile

// ExecResult reports a plain (unprofiled) execution.
type ExecResult = interp.Result

// Timings records per-stage wall-clock durations of the pipeline.
type Timings = engine.Timings

// CompileConfig controls how the engine executes — never what it
// computes: any configuration yields byte-identical results.
type CompileConfig struct {
	// Workers bounds the parallelism of the parse and liveness stages.
	// 0 means GOMAXPROCS; 1 forces sequential execution.
	Workers int
}

// Compilation is a compiled program: the reusable artifact of the
// frontend stages. Analyze/Lint/Profile/Run/Strip execute the later pipeline
// stages against it; compiling once and analyzing many times is the
// intended idiom for sweeps and services.
type Compilation struct {
	eng *engine.Compilation
}

// Compile runs the frontend (parallel lex/parse, then semantic analysis)
// over the sources once, returning the reusable Compilation.
// Cancellation or deadline expiry aborts the frontend between work items
// and is reported as the returned error.
func Compile(ctx context.Context, cfg CompileConfig, sources ...Source) (*Compilation, error) {
	c := engine.CompileContext(ctx, engine.Config{Workers: cfg.Workers}, sources...)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return &Compilation{eng: c}, nil
}

// Degraded reports whether a panic was contained while compiling: the
// crashing unit was dropped and the rest of the program salvaged. Consult
// Failures for the structured diagnostics.
func (c *Compilation) Degraded() bool { return c.eng.Degraded() }

// Failures lists the panics contained during compilation, in a
// deterministic order.
func (c *Compilation) Failures() []*Failure { return c.eng.Failures }

// Analyze runs the dead-data-member analysis, returning per-stage
// wall-clock timings (Parse/Sema are the compilation's, CallGraph/Liveness
// this call's). Repeated calls reuse the compiled program (and the call
// graph, when only marking rules differ). Cancellation is polled between
// functions in the liveness pass and reported as the returned error.
func (c *Compilation) Analyze(ctx context.Context, opts Options) (*Result, Timings, error) {
	return c.eng.AnalyzeTimedContext(ctx, opts.analysisOptions())
}

// Lint runs the flow-sensitive diagnostics — dead-store detection and
// write-only-member corroboration — on top of the analysis, returning
// findings sorted by (file, line, col, check) and per-stage timings. An
// interrupted run returns the context's error and a nil result.
func (c *Compilation) Lint(ctx context.Context, opts Options, lopts LintOptions) (*LintResult, Timings, error) {
	return c.eng.LintContext(ctx, opts.analysisOptions(), lint.Options{Budget: lopts.Budget})
}

// Profile analyzes and then executes the program on opts.Engine with an
// instrumented heap, attributing bytes to the dead members found.
// Cancellation or deadline expiry is polled at the interpreter's step
// boundary and aborts the run with an error satisfying
// errors.Is(err, ctx.Err()).
func (c *Compilation) Profile(ctx context.Context, opts Options) (*Profile, error) {
	return c.eng.ProfileContextEngine(ctx, opts.analysisOptions(), dynprof.Options{MaxSteps: opts.MaxSteps}, opts.Engine)
}

// Run executes the program without instrumentation on opts.Engine,
// bounded by opts.MaxSteps; the analysis options are ignored.
// Cancellation behaves as in Profile.
func (c *Compilation) Run(ctx context.Context, opts Options) (*ExecResult, error) {
	return c.eng.Run(ctx, opts.Engine, opts.MaxSteps)
}

// Strip analyzes and removes the dead data members (and unreachable
// functions) whose elimination is provably behaviour preserving,
// returning the transformed program — the space optimization the paper
// proposes for "any optimizing compiler". The transform consumes the
// compilation (its syntax trees are rewritten in place): do not call
// Analyze/Profile/Run on it afterwards — compile StripResult.Sources
// instead. A cancelled analysis returns the context's error and leaves
// the compilation unconsumed; a panic in the transform is contained and
// returned as an error.
func (c *Compilation) Strip(ctx context.Context, opts Options, stripOpts StripOptions) (*StripResult, error) {
	return c.eng.StripContext(ctx, opts.analysisOptions(), stripOpts)
}

// Timings returns the frontend stage durations of this compilation.
func (c *Compilation) Timings() Timings { return c.eng.Timings() }

// Fingerprint returns the content hash identifying the compiled sources.
func (c *Compilation) Fingerprint() string { return c.eng.Fingerprint }

// StripOptions configures the dead-member elimination transform.
type StripOptions = strip.Options

// StripResult reports what the transform removed (and what it refused to
// remove, with reasons).
type StripResult = strip.Result

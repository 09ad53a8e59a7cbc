package engine

import (
	"context"
	"fmt"

	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/interp"
	"deadmembers/internal/vm"
)

// Engine selects how MC++ programs are executed: the tree-walking
// interpreter or the bytecode VM. Both produce byte-identical observable
// behaviour — output, exit codes, step counts, and instrumented heap
// records — because the VM shares the interpreter's runtime core and
// only replaces the per-statement AST walk.
type Engine int

// Execution engines.
const (
	// EngineTree is the tree-walking interpreter (the default).
	EngineTree Engine = iota
	// EngineVM is the bytecode compiler + dispatch-loop VM with inline
	// caches (internal/vm).
	EngineVM
)

// String returns the knob spelling of the engine.
func (e Engine) String() string {
	if e == EngineVM {
		return "vm"
	}
	return "tree"
}

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "tree":
		return EngineTree, nil
	case "vm":
		return EngineVM, nil
	}
	return EngineTree, fmt.Errorf("unknown engine %q (want tree or vm)", s)
}

// ExecutorFor builds the Executor implementing eng for this compilation
// (nil for the tree engine), for callers driving interp or dynprof
// directly. A fresh Executor per run: its inline caches bind
// Machine-specific cells, so executors are never shared across runs.
func (c *Compilation) ExecutorFor(eng Engine) interp.Executor {
	if eng == EngineVM {
		return vm.NewExecutor(c.Program, c.Hierarchy)
	}
	return nil
}

// Run executes the program without instrumentation on the selected
// engine. The context is polled at the interpreter's step boundary;
// maxSteps bounds executed statements (0 = the interpreter's default).
func (c *Compilation) Run(ctx context.Context, eng Engine, maxSteps int64) (*interp.Result, error) {
	return interp.Run(c.Program, c.Hierarchy, interp.Options{
		Context:  ctx,
		FileSet:  c.FileSet,
		Executor: c.ExecutorFor(eng),
		MaxSteps: maxSteps,
	})
}

// ProfileContextEngine analyzes and then executes the program on the
// selected engine with an instrumented heap, attributing bytes to the
// dead members found. The analysis polls ctx between liveness functions
// and the instrumented execution polls it at the interpreter's step
// boundary, so a deadline bounds the whole run.
func (c *Compilation) ProfileContextEngine(ctx context.Context, opts deadmember.Options, dopts dynprof.Options, eng Engine) (*dynprof.Profile, error) {
	res, err := c.AnalyzeContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	if dopts.Context == nil {
		dopts.Context = ctx
	}
	dopts.Executor = c.ExecutorFor(eng)
	dopts.FileSet = c.FileSet
	return dynprof.Run(res, dopts)
}

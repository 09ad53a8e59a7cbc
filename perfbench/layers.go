package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"deadmembers/internal/ast"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/interp"
	"deadmembers/internal/lexer"
	"deadmembers/internal/lint"
	"deadmembers/internal/parser"
	"deadmembers/internal/persist"
	"deadmembers/internal/sema"
	"deadmembers/internal/source"
	"deadmembers/internal/strip"
	"deadmembers/internal/textreport"
	"deadmembers/internal/types"
	"deadmembers/internal/vm"
)

// paperOpts are the analysis options of deadmem and deadlint with no
// flags: RTA call graph and the paper's marking rules.
var paperOpts = deadmember.Options{CallGraph: callgraph.RTA}

// Stages of a layer pass beyond the static path (lexer through render),
// which always runs.
const (
	stageExec    = 1 << iota // plain and instrumented runs on both engines
	stageStrip               // the dead-member elimination transform
	stagePersist             // artifact store writes and reads
	stagesAll    = stageExec | stageStrip | stagePersist
)

// execSummary is everything Table 2 and the engine differential compare
// for one execution: the program's behaviour and, for an instrumented
// run, its heap ledger.
type execSummary struct {
	Output   string
	ExitCode int
	Steps    int64

	TotalBytes, DeadBytes, TotalObjects int64
	LiveBytes, AdjustedLiveBytes        int64
	HighWater, AdjustedHighWater        int64
	AccountingErr                       string
}

func summarizeRun(r *interp.Result) execSummary {
	return execSummary{Output: r.Output, ExitCode: r.ExitCode, Steps: r.Steps}
}

func summarizeProfile(p *dynprof.Profile) execSummary {
	s := summarizeRun(p.Exec)
	l := p.Ledger
	s.TotalBytes, s.DeadBytes, s.TotalObjects = l.TotalBytes, l.DeadBytes, l.TotalObjects
	s.LiveBytes, s.AdjustedLiveBytes = l.LiveBytes, l.AdjustedLiveBytes
	s.HighWater, s.AdjustedHighWater = l.HighWater, l.AdjustedHighWater
	if p.AccountingErr != nil {
		s.AccountingErr = p.AccountingErr.Error()
	}
	return s
}

// layerOutputs is what one program yields at each layer. Rendered bodies
// are exactly what deadmem, deadlint -format json and deadstrip print.
type layerOutputs struct {
	report, findings, stripped []byte
	nFindings                  int
	dead                       map[string]bool
	reachable                  int

	run, runVM   execSummary // plain runs
	prof, profVM execSummary // instrumented runs
	vmCompiled   int
	vmFallback   int
}

func deadSet(res *deadmember.Result) map[string]bool {
	out := map[string]bool{}
	for _, f := range res.DeadMembers() {
		out[f.QualifiedName()] = true
	}
	return out
}

// runLayers takes one program through every layer by calling each
// package directly, single-threaded, in the order the pipeline runs them.
// Under a tracer each call is a span; with a nil tracer the pass computes
// the reference outputs the workloads are checked against.
func runLayers(p program, stages int, t *tracer, store *persist.Store) (*layerOutputs, error) {
	out := &layerOutputs{}
	fset := source.NewFileSet()
	file := fset.AddFile(p.src.Name, p.src.Text)
	diags := source.NewDiagnosticList(fset)

	var toks []lexer.Token
	t.call("lexer", func() { toks = lexer.ScanAll(file, source.NewDiagnosticList(fset)) })
	if len(toks) == 0 {
		return nil, fmt.Errorf("%s: lexer returned no tokens", p.name())
	}
	var astFile *ast.File
	t.call("parser", func() {
		astFile = parser.ParseFileWithTypes(file, diags, parser.CollectTypeNames(file))
	})
	var prog *types.Program
	var h *hierarchy.Graph
	t.call("sema", func() { prog, h = sema.Check(fset, []*ast.File{astFile}, diags) })
	if diags.HasErrors() {
		return nil, fmt.Errorf("%s: does not compile: %v", p.name(), diags.Err())
	}

	var g *callgraph.Graph
	t.call("callgraph", func() { g = deadmember.BuildGraph(prog, h, paperOpts) })
	out.reachable = len(g.Reachable)
	var res *deadmember.Result
	t.call("deadmember", func() {
		res = deadmember.AnalyzeWith(prog, h, paperOpts, deadmember.Exec{Workers: 1, Graph: g})
	})
	out.dead = deadSet(res)
	var lres *lint.Result
	t.call("lint", func() { lres = lint.RunWith(res, lint.Options{}, lint.Exec{Workers: 1}) })
	out.nFindings = len(lres.Findings)
	var report, findings bytes.Buffer
	var renderErr error
	t.call("render", func() {
		renderErr = textreport.Write(&report, res, textreport.Options{})
		if renderErr == nil {
			renderErr = lint.WriteJSON(&findings, lres)
		}
	})
	if renderErr != nil {
		return nil, fmt.Errorf("%s: render: %w", p.name(), renderErr)
	}
	out.report, out.findings = report.Bytes(), findings.Bytes()

	if stages&stageExec != 0 {
		if err := runEngines(p, prog, h, fset, res, t, out); err != nil {
			return nil, err
		}
	}
	if stages&stageStrip != 0 {
		// Last among the layers that read the ASTs: strip rewrites them.
		var stripped bytes.Buffer
		var stripErr error
		t.call("strip", func() {
			stripErr = strip.WriteSources(&stripped, strip.Apply(res, strip.Options{}).Sources)
		})
		if stripErr != nil {
			return nil, fmt.Errorf("%s: strip: %w", p.name(), stripErr)
		}
		out.stripped = stripped.Bytes()
	}
	if stages&stagePersist != 0 {
		if err := persistBodies(p, out, t, store); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runEngines executes the program plainly and instrumented, on the
// tree-walker and on the VM.
func runEngines(p program, prog *types.Program, h *hierarchy.Graph, fset *source.FileSet, res *deadmember.Result, t *tracer, out *layerOutputs) error {
	var err error
	var r *interp.Result
	t.call("interp", func() { r, err = interp.Run(prog, h, interp.Options{FileSet: fset}) })
	if err != nil {
		return fmt.Errorf("%s: tree run: %w", p.name(), err)
	}
	out.run = summarizeRun(r)

	ex := vm.NewExecutor(prog, h)
	t.call("vm", func() { r, err = interp.Run(prog, h, interp.Options{FileSet: fset, Executor: ex}) })
	if err != nil {
		return fmt.Errorf("%s: vm run: %w", p.name(), err)
	}
	out.runVM = summarizeRun(r)
	out.vmCompiled, out.vmFallback = ex.Counts()

	var prof *dynprof.Profile
	t.call("dynprof.tree", func() { prof, err = dynprof.Run(res, dynprof.Options{FileSet: fset}) })
	if err != nil {
		return fmt.Errorf("%s: tree profile: %w", p.name(), err)
	}
	out.prof = summarizeProfile(prof)
	t.call("dynprof.vm", func() {
		prof, err = dynprof.Run(res, dynprof.Options{FileSet: fset, Executor: vm.NewExecutor(prog, h)})
	})
	if err != nil {
		return fmt.Errorf("%s: vm profile: %w", p.name(), err)
	}
	out.profVM = summarizeProfile(prof)
	return nil
}

// persistBodies writes the three rendered bodies to the artifact store
// and reads each back, as the daemon does for every fresh response and
// every repeated request.
func persistBodies(p program, out *layerOutputs, t *tracer, store *persist.Store) error {
	bodies := []struct {
		kind string
		body []byte
	}{{"analyze", out.report}, {"lint", out.findings}, {"strip", out.stripped}}
	for _, b := range bodies {
		key := artifactKey(p, b.kind)
		var err error
		t.call("persist.put", func() { err = store.Put(key, "text/plain", b.body) })
		if err != nil {
			return err
		}
		var got []byte
		var ok bool
		t.call("persist.get", func() { got, _, ok = store.Get(key) })
		if !ok || !bytes.Equal(got, b.body) {
			return fmt.Errorf("%s: persist store returned a different %s body", p.name(), b.kind)
		}
	}
	return nil
}

func artifactKey(p program, kind string) string {
	sum := sha256.Sum256([]byte(kind + "\x00" + p.src.Name + "\x00" + p.src.Text))
	return hex.EncodeToString(sum[:])
}

// checkOutputs compares one program's layer outputs with what is known
// independently of the code under test: the generator's planted dead
// set, and the tree-walker as the reference for the VM.
func checkOutputs(p program, out *layerOutputs, stages int) error {
	if err := checkDead(p, out.dead); err != nil {
		return err
	}
	if stages&stageExec != 0 {
		if out.runVM != out.run {
			return fmt.Errorf("%s: vm run differs from the tree-walker", p.name())
		}
		if out.profVM != out.prof {
			return fmt.Errorf("%s: vm profile differs from the tree-walker", p.name())
		}
		if out.prof.AccountingErr != "" {
			return fmt.Errorf("%s: heap ledger: %s", p.name(), out.prof.AccountingErr)
		}
	}
	return nil
}

func checkDead(p program, got map[string]bool) error {
	var missing, extra []string
	for m := range p.ground {
		if !got[m] {
			missing = append(missing, m)
		}
	}
	for m := range got {
		if !p.ground[m] {
			extra = append(extra, m)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("%s: dead set differs from the planted one: missing %v, unexpected %v", p.name(), missing, extra)
}

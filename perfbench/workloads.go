package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"deadmembers/internal/dynprof"
	"deadmembers/internal/engine"
	"deadmembers/internal/lint"
	"deadmembers/internal/textreport"
)

// paperbenchFindings is the number of lint findings `paperbench -timings`
// reports over the repository's corpus (seed 0).
const paperbenchFindings = 358

// workload is one named input set and the operation the benchmark times
// on it.
type workload struct {
	name string
	// setup does everything a user pays before the first operation:
	// input generation, set-up compiles, server start-up.
	setup func(cfg *config) (runner, error)
}

var workloads = []workload{
	{"corpus-static", setupCorpusStatic},
	{"large-program", setupLargeProgram},
	{"table2", setupTable2},
	{"daemon", setupDaemon},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner performs a workload's operations after set-up.
type runner interface {
	inputs() *inputSet
	// run performs at least one pass over the inputs, then further
	// passes until d has elapsed, recording each in rec.
	run(rec *recorder, d time.Duration)
	// row reports the workload's own end-to-end metrics, by the names
	// the benchmark's documentation uses for this workload.
	row(rec *recorder, elapsed time.Duration) []rowValue
	close() error
}

// inputSet is a workload's programs and their reference outputs.
type inputSet struct {
	progs []program
	// corpus marks the repository's paper corpus, whose finding count
	// paperbench reports.
	corpus bool
	// stages names the layer-pass stages the checks need beyond the
	// static path.
	stages int
	refs   []*layerOutputs
}

func (in *inputSet) inputs() *inputSet { return in }

type rowValue struct {
	name  string
	value float64
	unit  string
}

// ---------------------------------------------------------------------
// corpus-static and large-program: the deadmem/deadlint path, cold.

type staticRunner struct {
	inputSet
	large bool
}

func setupCorpusStatic(cfg *config) (runner, error) {
	return &staticRunner{inputSet: inputSet{progs: corpus(cfg.seed), corpus: true}}, nil
}

func setupLargeProgram(cfg *config) (runner, error) {
	return &staticRunner{inputSet: inputSet{progs: []program{largeProgram(cfg.largeClasses, cfg.seed)}}, large: true}, nil
}

// verdictOutputs are the rendered report and findings of one verdict.
type verdictOutputs struct {
	report, findings []byte
	dead             map[string]bool
}

// verdict takes one program from source to rendered report and findings
// the way deadmem and deadlint do: a fresh engine compile with no
// session cache, RTA analysis, the default lint tier, then rendering.
func verdict(p program, workers int) (*verdictOutputs, error) {
	ctx := context.Background()
	c := engine.CompileContext(ctx, engine.Config{Workers: workers}, p.src)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", p.name(), err)
	}
	res, err := c.AnalyzeContext(ctx, paperOpts)
	if err != nil {
		return nil, fmt.Errorf("%s: analyze: %w", p.name(), err)
	}
	lres, _, err := c.LintAnalyzed(ctx, res, lint.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: lint: %w", p.name(), err)
	}
	var report, findings bytes.Buffer
	if err := textreport.Write(&report, res, textreport.Options{Degraded: c.Degraded() || res.Degraded()}); err != nil {
		return nil, err
	}
	if err := lint.WriteJSON(&findings, lres); err != nil {
		return nil, err
	}
	return &verdictOutputs{report: report.Bytes(), findings: findings.Bytes(), dead: deadSet(res)}, nil
}

func (in *inputSet) checkVerdict(i int, out *verdictOutputs) error {
	p, ref := in.progs[i], in.refs[i]
	if !bytes.Equal(out.report, ref.report) {
		return fmt.Errorf("%s: report differs from the reference", p.name())
	}
	if !bytes.Equal(out.findings, ref.findings) {
		return fmt.Errorf("%s: lint findings differ from the reference", p.name())
	}
	return checkDead(p, out.dead)
}

func (s *staticRunner) run(rec *recorder, d time.Duration) {
	rec.passes(d, sourceBytes(s.progs), func() {
		for i, p := range s.progs {
			t0 := time.Now()
			out, err := verdict(p, 0)
			rec.part(time.Since(t0))
			if err == nil {
				err = s.checkVerdict(i, out)
			}
			rec.check(err)
		}
	})
}

func (s *staticRunner) row(rec *recorder, elapsed time.Duration) []rowValue {
	lat := toMS(rec.parts)
	if s.large {
		return []rowValue{{"large_verdict_s", median(lat) / 1000, "s"}}
	}
	return []rowValue{
		{"static_mb_per_s", float64(rec.bytes) / 1e6 / elapsed.Seconds(), "MB/s"},
		{"static_p50_ms", quantile(lat, 0.5), "ms"},
		{"static_p90_ms", quantile(lat, 0.9), "ms"},
	}
}

func (s *staticRunner) close() error { return nil }

// ---------------------------------------------------------------------
// table2: the paper's dynamic experiment on both execution engines.

const (
	engTree = 0
	engVM   = 1
)

var engines = [2]engine.Engine{engine.EngineTree, engine.EngineVM}

type table2Runner struct {
	inputSet
	comps []*engine.Compilation
}

func setupTable2(cfg *config) (runner, error) {
	t := &table2Runner{inputSet: inputSet{progs: corpus(cfg.seed), corpus: true, stages: stageExec}}
	for _, p := range t.progs {
		c := engine.Compile(engine.Config{}, p.src)
		if err := c.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name(), err)
		}
		t.comps = append(t.comps, c)
	}
	return t, nil
}

// run profiles each program under the tree-walker and then the VM. The
// tree-walker's profile must match the reference pass's, and the VM's
// must match the tree-walker's exactly.
func (t *table2Runner) run(rec *recorder, d time.Duration) {
	ctx := context.Background()
	rec.passes(d, 0, func() {
		for i, c := range t.comps {
			var tree execSummary
			for e, eng := range engines {
				t0 := time.Now()
				prof, err := c.ProfileContextEngine(ctx, paperOpts, dynprof.Options{}, eng)
				lat := time.Since(t0)
				if err == nil {
					got := summarizeProfile(prof)
					rec.exec(e, got.Steps, lat)
					err = t.checkProfile(i, e, got, tree)
					tree = got
				}
				rec.check(err)
			}
		}
	})
}

func (t *table2Runner) checkProfile(i, e int, got, tree execSummary) error {
	name := t.progs[i].name()
	if got.AccountingErr != "" {
		return fmt.Errorf("%s: heap ledger: %s", name, got.AccountingErr)
	}
	if e == engVM {
		if got != tree {
			return fmt.Errorf("%s: vm profile differs from the tree-walker", name)
		}
		return nil
	}
	if got != t.refs[i].prof {
		return fmt.Errorf("%s: tree profile differs from the reference", name)
	}
	return nil
}

func (t *table2Runner) row(rec *recorder, elapsed time.Duration) []rowValue {
	rate := func(e int) float64 { return float64(rec.steps[e]) / 1e6 / rec.execTime[e].Seconds() }
	return []rowValue{
		{"table2_tree_msteps_per_s", rate(engTree), "Msteps/s"},
		{"table2_vm_msteps_per_s", rate(engVM), "Msteps/s"},
	}
}

func (t *table2Runner) close() error { return nil }

// ---------------------------------------------------------------------
// daemon: closed-loop clients against an in-process deadmemd.

type daemonRunner struct {
	inputSet
	d      *daemon
	seed   int64
	nonces uint64
}

func setupDaemon(cfg *config) (runner, error) {
	progs := corpus(cfg.seed)
	d, err := startDaemon(cfg.workDir)
	if err != nil {
		return nil, err
	}
	return &daemonRunner{inputSet: inputSet{progs: progs, corpus: true, stages: stageStrip}, d: d, seed: cfg.seed}, nil
}

// variant returns a fresh source variant of p: a trailing comment with a
// seeded nonce gives it a fingerprint no earlier request used.
func (r *daemonRunner) variant(p program) string {
	r.nonces++
	return fmt.Sprintf("%s\n// nonce %016x\n", p.src.Text, reseed(r.nonces, r.seed))
}

// run is one closed-loop client: each pass sends, for every program in
// turn, the four requests of a cycle for one fresh variant. A cycle is
// checked as a unit; each request is timed as a part.
func (r *daemonRunner) run(rec *recorder, d time.Duration) {
	rec.passes(d, 0, func() {
		for i, p := range r.progs {
			text := r.variant(p)
			var cycleErr error
			for _, req := range daemonCycle {
				lat, err := r.d.request(req, p, text, r.refs[i])
				rec.part(lat)
				if cycleErr == nil {
					cycleErr = err
				}
			}
			rec.check(cycleErr)
		}
	})
}

func (r *daemonRunner) row(rec *recorder, elapsed time.Duration) []rowValue {
	reqs := toMS(rec.parts)
	return []rowValue{
		{"daemon_rps", float64(len(reqs)) / elapsed.Seconds(), "1/s"},
		{"daemon_p50_ms", quantile(reqs, 0.5), "ms"},
		{"daemon_p99_ms", quantile(reqs, 0.99), "ms"},
	}
}

func (r *daemonRunner) close() error { return r.d.close() }

package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"deadmembers/internal/engine"
	"deadmembers/internal/lint"
	"deadmembers/internal/persist"
	"deadmembers/internal/strip"
	"deadmembers/internal/textreport"
)

// staticPath names the spans that make up the deadmem/deadlint path in a
// layer pass. The separate lexer call is left out: the parser lexes too.
var staticPath = []string{"parser", "sema", "callgraph", "deadmember", "lint", "render"}

// traced is the traced run. Round after round it takes each of the
// workload's programs through every layer by direct calls, each call a
// span; the large-program workload adds the scaling sweep. It then sends
// one client cycle per program to a daemon, times the same engine calls
// in-process, and makes one untraced pass of the workload's own
// operations for the Go runtime's counters.
func traced(cfg *config, w workload) (*result, []rowValue, []string, error) {
	r, err := w.setup(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	defer r.close()
	in := r.inputs()
	checks := &recorder{}
	if err := references(in, checks, cfg.seed); err != nil {
		return nil, nil, nil, err
	}
	storeDir, err := os.MkdirTemp(cfg.workDir, "store-")
	if err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(storeDir)
	store, err := persist.Open(storeDir, persist.Options{})
	if err != nil {
		return nil, nil, nil, err
	}

	t := newTracer()
	isWorkload := map[string]bool{}
	for _, p := range in.progs {
		isWorkload[p.name()] = true
	}
	var sweep []program
	if s, ok := r.(*staticRunner); ok && s.large {
		for _, div := range []int{8, 4, 2} {
			p := largeProgram(cfg.largeClasses/div, cfg.seed)
			p.src.Name = fmt.Sprintf("sweep%d.mcc", cfg.largeClasses/div)
			sweep = append(sweep, p)
		}
	}

	last := make([]*layerOutputs, len(in.progs))
	var untraced []time.Duration
	start := time.Now()
	for round := 0; round < cfg.minRounds || time.Since(start) < cfg.seconds; round++ {
		t.round = round
		var base time.Duration
		for i, p := range in.progs {
			out, err := tracedPass(t, p, stagesAll, store)
			if err == nil && !bytes.Equal(out.report, in.refs[i].report) {
				err = fmt.Errorf("%s: traced report differs from the reference", p.name())
			}
			checks.check(err)
			if err == nil {
				last[i] = out
			}
			t0 := time.Now()
			v, err := verdict(p, 1)
			base += time.Since(t0)
			if err == nil {
				err = in.checkVerdict(i, v)
			}
			checks.check(err)
		}
		untraced = append(untraced, base)
		for _, p := range sweep {
			_, err := tracedPass(t, p, 0, nil)
			checks.check(err)
		}
	}
	for _, out := range last {
		if out == nil {
			return nil, nil, nil, fmt.Errorf("a program failed every traced pass")
		}
	}

	m := map[string]metric{}
	layerMetrics(m, t, in, last, untraced, isWorkload)
	exponents(m, t, in, sweep)
	if err := daemonMetrics(m, cfg, r, t, in, last, store, checks); err != nil {
		return nil, nil, nil, err
	}
	runtimeMetrics(m, r, checks)
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, nil, nil, fmt.Errorf("metric %s is not a number", name)
		}
	}
	spans := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
	if err := t.write(spans); err != nil {
		return nil, nil, nil, err
	}
	res := &result{Metrics: m}
	rows := []rowValue{
		{"trace.overhead_ms", m["trace.overhead_ms"].Value, "ms"},
		{"spans", float64(len(t.spans)), "count"},
	}
	return res, rows, res.tally(checks), nil
}

// tracedPass is one traced operation: a program through the layers.
func tracedPass(t *tracer, p program, stages int, store *persist.Store) (*layerOutputs, error) {
	t.begin(p.name())
	var out *layerOutputs
	var err error
	t.call("op", func() { out, err = runLayers(p, stages, t, store) })
	if err == nil {
		err = checkOutputs(p, out, stages)
	}
	return out, err
}

// layerMetrics reports each layer's self time (median over rounds of the
// per-round total over the workload's programs), allocation, and the
// work counts of the last round.
func layerMetrics(m map[string]metric, t *tracer, in *inputSet, last []*layerOutputs, untraced []time.Duration, isWorkload map[string]bool) {
	byRound := t.totalsByRound(func(op string) bool { return isWorkload[op] })
	per := func(f func(map[string]*layerTotals) float64) float64 {
		var xs []float64
		for _, totals := range byRound {
			xs = append(xs, f(totals))
		}
		return median(xs)
	}
	self := func(name string) float64 {
		return per(func(lt map[string]*layerTotals) float64 { return get(lt, name).self.Seconds() })
	}
	allocMB := func(name string) float64 {
		return per(func(lt map[string]*layerTotals) float64 { return float64(get(lt, name).alloc) / 1e6 })
	}
	mallocs := func(name string) float64 {
		return per(func(lt map[string]*layerTotals) float64 { return float64(get(lt, name).mallocs) })
	}
	perCallMS := func(name string) float64 {
		return per(func(lt map[string]*layerTotals) float64 {
			l := get(lt, name)
			return ms(l.self) / float64(l.calls)
		})
	}
	count := func(f func(*layerOutputs) int64) float64 {
		var n int64
		for _, out := range last {
			n += f(out)
		}
		return float64(n)
	}

	m["lexer.s"] = metric{self("lexer"), "s"}
	m["lexer.mb_per_s"] = metric{float64(sourceBytes(in.progs)) / 1e6 / self("lexer"), "MB/s"}
	for _, layer := range []string{"lexer", "parser", "sema", "lint", "interp", "vm"} {
		m[layer+".alloc_mb"] = metric{allocMB(layer), "MB"}
	}
	for _, layer := range []string{"parser", "sema", "callgraph", "deadmember", "lint", "render", "strip", "interp", "vm"} {
		m[layer+".s"] = metric{self(layer), "s"}
	}
	m["callgraph.reachable_funcs"] = metric{count(func(o *layerOutputs) int64 { return int64(o.reachable) }), "count"}
	m["deadmember.dead_members"] = metric{count(func(o *layerOutputs) int64 { return int64(len(o.dead)) }), "count"}
	m["lint.findings"] = metric{count(func(o *layerOutputs) int64 { return int64(o.nFindings) }), "count"}
	m["render.bytes"] = metric{count(func(o *layerOutputs) int64 { return int64(len(o.report) + len(o.findings)) }), "bytes"}
	m["interp.mallocs"] = metric{mallocs("interp"), "objects"}
	m["interp.steps"] = metric{count(func(o *layerOutputs) int64 { return o.run.Steps }), "count"}
	m["vm.mallocs"] = metric{mallocs("vm"), "objects"}
	m["vm.compiled_funcs"] = metric{count(func(o *layerOutputs) int64 { return int64(o.vmCompiled) }), "count"}
	m["vm.fallback_funcs"] = metric{count(func(o *layerOutputs) int64 { return int64(o.vmFallback) }), "count"}
	m["dynprof.overhead_tree"] = metric{self("dynprof.tree") / self("interp"), "ratio"}
	m["dynprof.overhead_vm"] = metric{self("dynprof.vm") / self("vm"), "ratio"}
	m["heapsim.hwm_bytes"] = metric{count(func(o *layerOutputs) int64 { return o.prof.HighWater }), "bytes"}
	m["heapsim.dead_bytes"] = metric{count(func(o *layerOutputs) int64 { return o.prof.DeadBytes }), "bytes"}
	m["persist.get_ms"] = metric{perCallMS("persist.get"), "ms"}
	m["persist.put_ms"] = metric{perCallMS("persist.put"), "ms"}

	// Tracing overhead: the traced static path minus the same path run
	// untraced through the engine with one worker, per pass.
	var overhead []float64
	for round, totals := range byRound {
		var traced time.Duration
		for _, name := range staticPath {
			traced += get(totals, name).self
		}
		overhead = append(overhead, ms(traced-untraced[round]))
	}
	m["trace.overhead_ms"] = metric{median(overhead), "ms"}
}

func get(totals map[string]*layerTotals, name string) *layerTotals {
	if lt := totals[name]; lt != nil {
		return lt
	}
	return &layerTotals{}
}

// exponents fits, for the call graph and liveness stages, the log-log
// slope of self time against source bytes: over the sweep plus the large
// program itself on large-program, over the workload's programs
// otherwise.
func exponents(m map[string]metric, t *tracer, in *inputSet, sweep []program) {
	progs := append(append([]program(nil), sweep...), in.progs...)
	for _, layer := range []string{"callgraph", "deadmember"} {
		var xs, ys []float64
		for _, p := range progs {
			name := p.name()
			var times []float64
			for _, totals := range t.totalsByRound(func(op string) bool { return op == name }) {
				times = append(times, get(totals, layer).self.Seconds())
			}
			xs = append(xs, float64(len(p.src.Text)))
			ys = append(ys, median(times))
		}
		m[layer+".exponent"] = metric{slope(xs, ys), "slope"}
	}
}

// daemonMetrics sends one client cycle per program to a daemon (the
// workload's own, or a fresh one), times the same engine calls
// in-process, and reads the server's counters around the phase.
func daemonMetrics(m map[string]metric, cfg *config, r runner, t *tracer, in *inputSet, last []*layerOutputs, store *persist.Store, checks *recorder) error {
	// The daemon workload's own runner keeps its nonce sequence, so the
	// variants sent here are fresh to its server.
	client, ok := r.(*daemonRunner)
	if !ok {
		d, err := startDaemon(cfg.workDir)
		if err != nil {
			return err
		}
		defer d.close()
		client = &daemonRunner{d: d, seed: cfg.seed}
	}
	d := client.d
	before, err := d.counters()
	if err != nil {
		return err
	}
	t.round = -1 // keeps these spans out of the layer totals
	var transport []float64
	for i, p := range in.progs {
		text := client.variant(p)
		t.begin(p.name())
		for _, req := range daemonCycle {
			var lat time.Duration
			t.call("server."+req.kind, func() { lat, err = d.request(req, p, text, last[i]) })
			checks.check(err)
			var local time.Duration
			t.call("inproc."+req.kind, func() { local, err = inProcess(req.kind, p, text, last[i], store) })
			checks.check(err)
			transport = append(transport, ms(lat-local))
		}
	}
	after, err := d.counters()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after["deadmemd_"+name] - before["deadmemd_"+name] }
	hits, compiles := delta("cache_hits_total"), delta("cache_compiles_total")
	pHits, pMisses := delta("persist_hits_total"), delta("persist_misses_total")
	m["session.hit_ratio"] = metric{hits / (hits + compiles), "ratio"}
	m["session.compiles"] = metric{compiles, "count"}
	m["persist.hit_ratio"] = metric{pHits / (pHits + pMisses), "ratio"}
	m["server.transport_ms"] = metric{median(transport), "ms"}
	m["server.rejected"] = metric{delta("rejected_total"), "count"}
	return nil
}

// inProcess makes the engine calls the daemon makes for one request kind
// on the same source variant, checks the rendered body, and returns how
// long the calls took.
func inProcess(kind string, p program, text string, ref *layerOutputs, store *persist.Store) (time.Duration, error) {
	ctx := context.Background()
	src := engine.Source{Name: p.src.Name, Text: text}
	var body bytes.Buffer
	var want []byte
	var err error
	start := time.Now()
	switch kind {
	case "analyze":
		want = ref.report
		c := engine.CompileContext(ctx, engine.Config{}, src)
		if err = c.Err(); err == nil {
			res, _, aerr := c.AnalyzeTimedContext(ctx, paperOpts)
			if err = aerr; err == nil {
				err = textreport.Write(&body, res, textreport.Options{Degraded: c.Degraded() || res.Degraded()})
			}
		}
	case "lint":
		want = ref.findings
		// The daemon's lint request finds the compilation and its call
		// graph cached by the analyze request before it.
		c := engine.CompileContext(ctx, engine.Config{}, src)
		if err = c.Err(); err != nil {
			break
		}
		if _, err = c.AnalyzeContext(ctx, paperOpts); err != nil {
			break
		}
		start = time.Now()
		lres, _, lerr := c.LintContext(ctx, paperOpts, lint.Options{})
		if err = lerr; err == nil {
			err = lint.WriteJSON(&body, lres)
		}
	case "strip":
		want = ref.stripped
		c := engine.CompileContext(ctx, engine.Config{}, src)
		if err = c.Err(); err == nil {
			out, serr := c.StripContext(ctx, paperOpts, strip.Options{})
			if err = serr; err == nil {
				err = strip.WriteSources(&body, out.Sources)
			}
		}
	case "analyze-persisted":
		want = ref.report
		key := artifactKey(program{src: src}, kind)
		if err = store.Put(key, "text/plain", ref.report); err != nil {
			break
		}
		start = time.Now()
		got, _, ok := store.Get(key)
		if !ok {
			err = fmt.Errorf("persist store lost %s", key)
		}
		body.Write(got)
	}
	took := time.Since(start)
	if err == nil && !bytes.Equal(body.Bytes(), want) {
		err = fmt.Errorf("%s %s: in-process body differs from the layer pass", kind, p.name())
	}
	return took, err
}

// runtimeMetrics makes one untraced pass of the workload's own
// operations and reports what the Go runtime did during it.
func runtimeMetrics(m map[string]metric, r runner, checks *recorder) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r.run(checks, 0)
	runtime.ReadMemStats(&after)
	m["gc.cycles"] = metric{float64(after.NumGC - before.NumGC), "cycles"}
	m["gc.pause_ms"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, "ms"}
	m["alloc_mb"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / 1e6, "MB"}
}

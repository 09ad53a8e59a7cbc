// Command perfbench is the repository's benchmark: four workloads over the
// whole pipeline, measured end to end, plus a traced run that breaks the
// time and memory down by layer.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//
// An untraced run prints the end-to-end metrics; a traced run (--trace 1)
// prints the per-layer metrics and writes its spans as JSON under the
// work directory. Either way the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The command exits
// non-zero if any output check fails. --workload all runs every workload
// in its own process and prints one row per workload. METRICS.md describes
// the workloads, every metric, and which end-to-end metric each layer
// should move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"time"
)

type config struct {
	seed    int64
	seconds time.Duration
	workDir string

	// Fixed for the benchmark; the benchmark's own tests shrink them.
	largeClasses int           // classes in the large-program input
	setupReps    int           // fewest set-ups per run; setup_s is their median
	setupTime    time.Duration // set-ups repeat until this much time has passed
	minRounds    int           // fewest rounds of a traced run
}

func defaultConfig() *config {
	return &config{largeClasses: 3200, setupReps: 11, setupTime: time.Second, minRounds: 3}
}

// warmup is how long a workload runs untimed before measuring, so the
// heap and the VM's lazily compiled functions settle; at least one pass
// always runs.
func (c *config) warmup() time.Duration {
	w := c.seconds / 5
	if w > 3*time.Second {
		w = 3 * time.Second
	}
	return w
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally folds the recorders of a run into the result's counts and
// returns the first failure messages.
func (r *result) tally(recs ...*recorder) []string {
	var failures []string
	for _, rec := range recs {
		r.Attempted += rec.attempted
		r.Failed += rec.failed
		failures = append(failures, rec.failures...)
	}
	r.Correct = r.Failed == 0
	return failures
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := defaultConfig()
	workload := fs.String("workload", "", "workload to run: corpus-static, large-program, table2, daemon, or all")
	seed := fs.Int64("seed", 0, "input seed; 0 is the repository's own corpus")
	seconds := fs.Float64("seconds", 15, "measured duration of the run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workDir := fs.String("workdir", ".bench_build/work", "directory for persist stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.seed, cfg.workDir = *seed, *workDir
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *workload == "all" {
		return runAll(cfg, *trace, stdout, stderr)
	}
	w, ok := workloadNamed(*workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}

	var res *result
	var rows []rowValue
	var failures []string
	var err error
	if *trace == 1 {
		res, rows, failures, err = traced(cfg, w)
	} else {
		res, rows, failures, err = measured(cfg, w)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range failures {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, f)
	}
	fmt.Fprintln(stdout, formatRow(w.name, cfg.seed, rows))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// formatRow prints a run's seed and headline metrics by name and unit.
func formatRow(workload string, seed int64, rows []rowValue) string {
	var b strings.Builder
	fmt.Fprintf(&b, "row %-14s seed=%d", workload, seed)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s=%.4g %s", r.name, r.value, r.unit)
	}
	return b.String()
}

// measured is the untraced run: set-up (repeated, median reported),
// reference outputs, warm-up, then the measured passes. Set-ups and
// passes are timed in process CPU time, which a busy host does not
// inflate; the row adds their wall-clock figures.
func measured(cfg *config, w workload) (*result, []rowValue, []string, error) {
	var setups, setupsWall []float64
	var r runner
	for begin := time.Now(); len(setups) < cfg.setupReps || time.Since(begin) < cfg.setupTime; {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, nil, nil, err
			}
			r = nil
		}
		// Like each pass, each set-up starts from a collected heap whose
		// free memory has gone back to the OS.
		debug.FreeOSMemory()
		var err error
		wall, cpu := timed(func() { r, err = w.setup(cfg) })
		setups = append(setups, cpu.Seconds())
		setupsWall = append(setupsWall, wall.Seconds())
		if err != nil {
			return nil, nil, nil, err
		}
	}
	checks := &recorder{}
	if err := references(r.inputs(), checks, cfg.seed); err != nil {
		r.close()
		return nil, nil, nil, err
	}
	warm := &recorder{}
	r.run(warm, cfg.warmup())
	rec := &recorder{}
	start := time.Now()
	r.run(rec, cfg.seconds)
	elapsed := time.Since(start)
	if err := r.close(); err != nil {
		return nil, nil, nil, err
	}
	if rec.rssErr != nil {
		return nil, nil, nil, rec.rssErr
	}
	peak := median(rec.rss)

	cpu := toMS(rec.cpu)
	res := &result{Metrics: map[string]metric{
		"setup_s":          {median(setups), "s"},
		"peak_rss_mb":      {peak, "MB"},
		"passes_per_cpu_s": {float64(len(cpu)) / sum(rec.cpu).Seconds(), "1/s"},
		"pass_cpu_p50_ms":  {quantile(cpu, 0.5), "ms"},
		"pass_cpu_p90_ms":  {quantile(cpu, 0.9), "ms"},
	}}
	failures := res.tally(checks, warm, rec)
	rows := append([]rowValue{
		{"setup_s", median(setups), "s"},
		{"setup_wall_s", median(setupsWall), "s"},
		{"peak_rss_mb", peak, "MB"},
		{"passes", float64(len(cpu)), "count"},
		{"pass_wall_p50_ms", median(toMS(rec.wall)), "ms"},
		{"pass_cpu_p50_ms", quantile(cpu, 0.5), "ms"},
	}, r.row(rec, elapsed)...)
	return res, rows, failures, nil
}

// references computes every program's reference outputs with a direct,
// single-threaded layer pass and checks them against the planted dead
// sets, the tree-walker, and, for the repository's corpus, the finding
// count paperbench reports.
func references(in *inputSet, checks *recorder, seed int64) error {
	total := 0
	in.refs = nil
	for _, p := range in.progs {
		out, err := runLayers(p, in.stages, nil, nil)
		if err != nil {
			return err
		}
		checks.check(checkOutputs(p, out, in.stages))
		in.refs = append(in.refs, out)
		total += out.nFindings
	}
	if in.corpus && seed == 0 {
		var err error
		if total != paperbenchFindings {
			err = fmt.Errorf("corpus lint reports %d findings, paperbench reports %d", total, paperbenchFindings)
		}
		checks.check(err)
	}
	return nil
}

// runAll runs every workload in a process of its own, so each reports
// its own peak memory, and prints one row per workload.
func runAll(cfg *config, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	total := &result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds.Seconds()), "--trace", fmt.Sprint(trace), "--workdir", cfg.workDir)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
		var last string
		sc := bufio.NewScanner(&out)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "row ") {
				fmt.Fprintln(stdout, sc.Text())
			}
			last = sc.Text()
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			total.Correct = false
			continue
		}
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		total.Correct = total.Correct && res.Correct
		for name, m := range res.Metrics {
			total.Metrics[w.name+"."+name] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		code = 1
	}
	return code
}

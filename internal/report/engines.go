package report

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"deadmembers/internal/bench"
	"deadmembers/internal/engine"
)

// EngineRow is one benchmark's engine comparison: the same program run
// to completion on the tree-walking interpreter and the bytecode VM,
// wall-clock timed. The run is only reported when the two engines agree
// byte-for-byte on output, exit code, and step count — a disagreement
// degrades the row instead of producing a bogus speedup.
type EngineRow struct {
	Name     string  `json:"name"`
	Steps    int64   `json:"steps"`
	TreeSecs float64 `json:"tree_seconds"`
	VMSecs   float64 `json:"vm_seconds"`
	TreeSPS  float64 `json:"tree_steps_per_sec"`
	VMSPS    float64 `json:"vm_steps_per_sec"`
	Speedup  float64 `json:"speedup"`
	Degraded bool    `json:"degraded,omitempty"`
	Note     string  `json:"note,omitempty"`
}

// CollectEngines runs each benchmark under both engines and
// returns the comparison rows. Failures (compile errors, runtime
// divergence, cancellation mid-run) degrade the affected row; only
// context cancellation aborts the sweep.
func CollectEngines(ctx context.Context, s *engine.Session, benchmarks []*bench.Benchmark) ([]*EngineRow, error) {
	var out []*EngineRow
	for _, b := range benchmarks {
		row := collectEngineRow(ctx, s, b)
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		out = append(out, row)
	}
	return out, nil
}

func collectEngineRow(ctx context.Context, s *engine.Session, b *bench.Benchmark) *EngineRow {
	row := &EngineRow{Name: b.Name}
	c, err := b.CompileContext(ctx, s)
	if err != nil {
		row.Degraded = true
		row.Note = "compile: " + err.Error()
		return row
	}
	treeStart := time.Now()
	treeRes, treeErr := c.Run(ctx, engine.EngineTree, 0)
	treeDur := time.Since(treeStart)
	vmStart := time.Now()
	vmRes, vmErr := c.Run(ctx, engine.EngineVM, 0)
	vmDur := time.Since(vmStart)
	switch {
	case treeErr != nil || vmErr != nil:
		row.Degraded = true
		row.Note = fmt.Sprintf("run: tree=%v vm=%v", treeErr, vmErr)
	case treeRes.Output != vmRes.Output ||
		treeRes.ExitCode != vmRes.ExitCode ||
		treeRes.Steps != vmRes.Steps:
		row.Degraded = true
		row.Note = fmt.Sprintf("engines diverged: tree(exit=%d steps=%d) vm(exit=%d steps=%d)",
			treeRes.ExitCode, treeRes.Steps, vmRes.ExitCode, vmRes.Steps)
	default:
		row.Steps = treeRes.Steps
		row.TreeSecs = treeDur.Seconds()
		row.VMSecs = vmDur.Seconds()
		if row.TreeSecs > 0 {
			row.TreeSPS = float64(row.Steps) / row.TreeSecs
		}
		if row.VMSecs > 0 {
			row.VMSPS = float64(row.Steps) / row.VMSecs
			row.Speedup = row.TreeSecs / row.VMSecs
		}
	}
	return row
}

// EnginesTable renders the engine comparison exhibit: steps/sec under
// each engine and the VM's wall-clock speedup, per benchmark.
func EnginesTable(rows []*EngineRow) string {
	var b strings.Builder
	b.WriteString("Engine comparison: tree-walking interpreter vs bytecode VM (byte-identical runs)\n")
	fmt.Fprintf(&b, "%-10s %12s %10s %10s %14s %14s %9s\n",
		"benchmark", "steps", "tree(s)", "vm(s)", "tree steps/s", "vm steps/s", "speedup")
	b.WriteString(strings.Repeat("-", 85) + "\n")
	var sumSteps int64
	var sumTree, sumVM float64
	clean := 0
	for _, r := range rows {
		if r.Degraded {
			fmt.Fprintf(&b, "%-10s [degraded: %s]\n", r.Name, r.Note)
			continue
		}
		fmt.Fprintf(&b, "%-10s %12d %10.3f %10.3f %14.0f %14.0f %8.2fx\n",
			r.Name, r.Steps, r.TreeSecs, r.VMSecs, r.TreeSPS, r.VMSPS, r.Speedup)
		sumSteps += r.Steps
		sumTree += r.TreeSecs
		sumVM += r.VMSecs
		clean++
	}
	if clean > 0 && sumTree > 0 && sumVM > 0 {
		fmt.Fprintf(&b, "%-10s %12d %10.3f %10.3f %14.0f %14.0f %8.2fx\n",
			"total", sumSteps, sumTree, sumVM,
			float64(sumSteps)/sumTree, float64(sumSteps)/sumVM, sumTree/sumVM)
	}
	return b.String()
}

// EnginesJSON renders the rows as indented JSON (the make bench-vm
// snapshot format).
func EnginesJSON(rows []*EngineRow) (string, error) {
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

package main

import (
	"strings"
	"testing"
	"time"
)

func TestDumpBenchmark(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-dump", "richards"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "class Scheduler") {
		t.Errorf("dump missing richards content")
	}
}

func TestDumpUnknown(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-dump", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown benchmark should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "jikes") {
		t.Errorf("error should list available benchmarks:\n%s", errOut.String())
	}
}

func TestSingleExhibits(t *testing.T) {
	// -table1 and -figure3 only need the (cached-by-nothing) pipeline; run
	// them in one process invocation each to keep the test fast but real.
	var out, errOut strings.Builder
	if code := run([]string{"-table1", "-figure3", "-summary"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"Table 1", "Figure 3", "Headline numbers", "12.5%"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(s, "Table 2") {
		t.Error("-table2 output present though not requested")
	}
}

func TestTimingsFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-timings", "-ablation", "-parallel", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"parse", "sema", "liveness", "Ablations"} {
		if !strings.Contains(s, want) {
			t.Errorf("-timings output missing %q:\n%s", want, s)
		}
	}
	// All exhibits share one session: 11 compiles total even with the
	// ablation sweep included.
	if !strings.Contains(s, "session: 11 frontend compile(s)") {
		t.Errorf("timings output should report 11 session compiles:\n%s", s)
	}
}

func TestCSVFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-csv"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 12 || !strings.HasPrefix(lines[0], "benchmark,") {
		t.Errorf("unexpected CSV output (%d lines)", len(lines))
	}
}

func TestTimeoutAbortsSweep(t *testing.T) {
	var out, errOut strings.Builder
	start := time.Now()
	if code := run([]string{"-timeout", "1ns", "-table1"}, &out, &errOut); code != 1 {
		t.Fatalf("timed-out sweep should exit 1, got %d\nstderr: %s", code, errOut.String())
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("sweep took %v to honor an expired timeout", elapsed)
	}
	if !strings.Contains(errOut.String(), "deadline") {
		t.Errorf("stderr missing deadline diagnostic:\n%s", errOut.String())
	}
}

func TestEngineFlagRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-engine", "jit"}, &out, &errOut); code != 2 {
		t.Fatalf("bad -engine should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), `unknown engine "jit"`) {
		t.Errorf("stderr missing engine diagnostic:\n%s", errOut.String())
	}
}

// TestPrecisionFlagRejected: paperbench has no -precision exhibit.
func TestPrecisionFlagRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-precision"}, &out, &errOut); code != 2 {
		t.Fatalf("-precision should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "-precision") {
		t.Errorf("stderr missing flag diagnostic:\n%s", errOut.String())
	}
}

func TestEnginesExhibit(t *testing.T) {
	// The paper corpus is small enough to run under both engines in a
	// couple of seconds; the exhibit itself asserts byte-identity per row
	// (a divergence degrades the row and the run exits 1).
	var out, errOut strings.Builder
	if code := run([]string{"-engines"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"Engine comparison", "vm steps/s", "richards", "total"} {
		if !strings.Contains(s, want) {
			t.Errorf("-engines output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "Table 1") {
		t.Error("-engines should skip the profiled exhibits")
	}
	if strings.Contains(s, "[degraded") {
		t.Errorf("engines diverged:\n%s", s)
	}
}

func TestEnginesJSON(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-engines", "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{`"tree_steps_per_sec"`, `"speedup"`, `"name": "sched"`} {
		if !strings.Contains(s, want) {
			t.Errorf("-engines -json output missing %q:\n%s", want, s)
		}
	}
}

func TestProfiledExhibitsThroughVM(t *testing.T) {
	// The profiled exhibits are byte-identical across engines; prove it
	// for the cheapest pair.
	var tree, vmOut, errOut strings.Builder
	if code := run([]string{"-table2", "-engine", "tree"}, &tree, &errOut); code != 0 {
		t.Fatalf("tree exit %d, stderr: %s", code, errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-table2", "-engine", "vm"}, &vmOut, &errOut); code != 0 {
		t.Fatalf("vm exit %d, stderr: %s", code, errOut.String())
	}
	if tree.String() != vmOut.String() {
		t.Errorf("-table2 differs across engines:\ntree:\n%s\nvm:\n%s", tree.String(), vmOut.String())
	}
}

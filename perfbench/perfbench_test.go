package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"deadmembers/internal/bench"
)

// benchmarkDef reads the metric names BENCHMARK.json declares.
func benchmarkDef(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if len(names) != len(ours) {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark runs %v", names, ours)
	}
	for i := range names {
		if names[i] != ours[i] {
			t.Fatalf("BENCHMARK.json names workloads %v, the benchmark runs %v", names, ours)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// selfCheckConfig shrinks a run to one pass of everything: the mode the
// benchmark's own tests use.
func selfCheckConfig(t *testing.T) *config {
	cfg := defaultConfig()
	cfg.seconds = time.Millisecond
	cfg.workDir = t.TempDir()
	cfg.largeClasses = 400
	cfg.setupReps = 1
	cfg.setupTime = 0
	cfg.minRounds = 1
	return cfg
}

func checkMetrics(t *testing.T, res *result, failures []string, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, failures)
	}
	var got []string
	for name, m := range res.Metrics {
		got = append(got, name)
		unit, ok := want[name]
		if !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		} else if unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	if len(got) != len(want) {
		sort.Strings(got)
		t.Errorf("reported %d metrics %v, BENCHMARK.json declares %d", len(got), got, len(want))
	}
}

func TestWorkloadsSelfCheck(t *testing.T) {
	endToEnd, _ := benchmarkDef(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, rows, failures, err := measured(selfCheckConfig(t), w)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, failures, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			if len(rows) < 3 {
				t.Errorf("row has only %v", rows)
			}
		})
	}
}

func TestTracedSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs execute the whole corpus; skipped with -short")
	}
	_, perLayer := benchmarkDef(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, _, failures, err := traced(selfCheckConfig(t), w)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, failures, perLayer)
		})
	}
}

// TestPaperSpecsReproduceCorpus guards the copy of the generator settings:
// at their own seeds they must regenerate bench.All() byte for byte.
func TestPaperSpecsReproduceCorpus(t *testing.T) {
	all := bench.All()
	for i, spec := range paperSpecs {
		text, ground := bench.Generate(spec)
		if all[i].Name != spec.Name || all[i].Sources[0].Text != text || len(all[i].GroundTruth) != len(ground) {
			t.Errorf("spec %s does not regenerate the corpus entry", spec.Name)
		}
	}
}

func TestSeedReseedsSynthesizedProgramsOnly(t *testing.T) {
	base, other, again := corpus(0), corpus(7), corpus(7)
	for i := range base {
		synthesized := i < len(paperSpecs)
		if changed := base[i].src.Text != other[i].src.Text; changed != synthesized {
			t.Errorf("%s: changed=%v under another seed, want %v", base[i].name(), changed, synthesized)
		}
		if other[i].src.Text != again[i].src.Text {
			t.Errorf("%s: the same seed gave different sources", base[i].name())
		}
	}
	if largeProgram(400, 0).src.Text == largeProgram(400, 7).src.Text {
		t.Error("the large program ignores the seed")
	}
}

func TestSlopeRecoversExponent(t *testing.T) {
	xs := []float64{1, 2, 4, 8}
	ys := []float64{3, 12, 48, 192}
	if got := slope(xs, ys); got < 1.999 || got > 2.001 {
		t.Errorf("slope = %v, want 2", got)
	}
}

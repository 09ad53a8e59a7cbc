// Package bench provides the benchmark corpus used to reproduce the
// paper's evaluation: hand-written MC++ ports of richards and deltablue
// (the two small benchmarks with zero dead members) and nine synthesized
// applications calibrated to the remaining paper benchmarks.
package bench

import (
	"context"
	"fmt"

	"deadmembers/internal/engine"
	"deadmembers/internal/source"
)

// PaperRow carries the paper's published numbers for one benchmark, used
// by the report package for paper-vs-measured comparison. Zero fields
// mean the paper did not report (or OCR lost) the value; Approx flags
// values reconstructed from garbled table cells.
type PaperRow struct {
	LOC         int
	Classes     int
	UsedClasses int
	Members     int

	DeadPercent float64 // Figure 3 (chart; values are our calibration targets)

	ObjectSpace int64 // Table 2
	DeadSpace   int64
	HighWater   int64
	HighWaterWo int64
	Approx      bool
}

// Benchmark is one corpus entry.
type Benchmark struct {
	Name        string
	Description string
	Sources     []source.Source
	Paper       PaperRow

	// GroundTruth is the exact set of dead members planted by the
	// generator (nil for the hand-written benchmarks, whose ground truth
	// is the empty set).
	GroundTruth map[string]bool
}

// paperTable2 holds the Table 2 byte counts from the paper (OCR-garbled
// cells reconstructed and flagged Approx).
var paperTable2 = map[string]PaperRow{
	"jikes":     {LOC: 58296, Classes: 268, UsedClasses: 190, Members: 1052, DeadPercent: 11.9, ObjectSpace: 2921490, DeadSpace: 175289, HighWater: 2179730, HighWaterWo: 2048946, Approx: true},
	"idl":       {LOC: 30408, Classes: 150, UsedClasses: 105, Members: 600, DeadPercent: 6.1, ObjectSpace: 708249, DeadSpace: 15388, HighWater: 701273, HighWaterWo: 686886},
	"npic":      {LOC: 11670, Classes: 60, UsedClasses: 48, Members: 220, DeadPercent: 5.0, ObjectSpace: 115248, DeadSpace: 5616, HighWater: 24972, HighWaterWo: 23840},
	"lcom":      {LOC: 17278, Classes: 72, UsedClasses: 58, Members: 300, DeadPercent: 9.8, ObjectSpace: 2274956, DeadSpace: 241435, HighWater: 1652828, HighWaterWo: 1491048},
	"taldict":   {LOC: 3010, Classes: 55, UsedClasses: 27, Members: 190, DeadPercent: 27.3, ObjectSpace: 7980, DeadSpace: 36, HighWater: 7080, HighWaterWo: 6972, Approx: true},
	"ixx":       {LOC: 11157, Classes: 90, UsedClasses: 63, Members: 420, DeadPercent: 7.7, ObjectSpace: 551160, DeadSpace: 29745, HighWater: 299516, HighWaterWo: 269775},
	"simulate":  {LOC: 6672, Classes: 45, UsedClasses: 24, Members: 170, DeadPercent: 23.1, ObjectSpace: 64869, DeadSpace: 41, HighWater: 11644, HighWaterWo: 11586, Approx: true},
	"sched":     {LOC: 5712, Classes: 24, UsedClasses: 20, Members: 80, DeadPercent: 3.0, ObjectSpace: 9032676, DeadSpace: 1049148, HighWater: 9032676, HighWaterWo: 7983528},
	"hotwire":   {LOC: 5355, Classes: 37, UsedClasses: 21, Members: 166, DeadPercent: 18.6, ObjectSpace: 10780, DeadSpace: 284, HighWater: 10780, HighWaterWo: 10496},
	"deltablue": {LOC: 1250, Classes: 10, UsedClasses: 8, Members: 23, DeadPercent: 0, ObjectSpace: 276364, DeadSpace: 0, HighWater: 196212, HighWaterWo: 196212},
	"richards":  {LOC: 606, Classes: 12, UsedClasses: 12, Members: 28, DeadPercent: 0, ObjectSpace: 4889, DeadSpace: 0, HighWater: 4880, HighWaterWo: 4880},
}

// All returns the full 11-benchmark corpus in the paper's presentation
// order. Generation is deterministic: repeated calls return identical
// sources.
func All() []*Benchmark {
	var out []*Benchmark
	for _, spec := range specs {
		src, ground := Generate(spec)
		out = append(out, &Benchmark{
			Name:        spec.Name,
			Description: spec.Description,
			Sources:     []source.Source{{Name: spec.Name + ".mcc", Text: src}},
			Paper:       paperTable2[spec.Name],
			GroundTruth: ground,
		})
	}
	out = append(out,
		&Benchmark{
			Name:        "deltablue",
			Description: "incremental dataflow constraint solver",
			Sources:     []source.Source{{Name: "deltablue.mcc", Text: deltablueSource}},
			Paper:       paperTable2["deltablue"],
		},
		&Benchmark{
			Name:        "richards",
			Description: "simple operating system simulator",
			Sources:     []source.Source{{Name: "richards.mcc", Text: richardsSource}},
			Paper:       paperTable2["richards"],
		},
	)
	return out
}

// CompileContext compiles the benchmark's sources in session s. The
// session caches by content hash, so repeated calls — collection then
// ablation, or a benchmark loop — run the frontend once per benchmark.
func (b *Benchmark) CompileContext(ctx context.Context, s *engine.Session) (*engine.Compilation, error) {
	c := s.CompileContext(ctx, b.Sources...)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	return c, nil
}

// ByName returns the named corpus benchmark.
func ByName(name string) (*Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown benchmark %q", name)
}

// Names returns the corpus benchmark names in presentation order.
func Names() []string {
	var out []string
	for _, b := range All() {
		out = append(out, b.Name)
	}
	return out
}

package deadmembers_test

import (
	"context"
	"runtime"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/engine"
	"deadmembers/internal/lexer"
	"deadmembers/internal/source"
)

// maxCompileBytesPerSourceByte bounds what one single-worker compile
// allocates per byte of source, on every corpus program and on the
// 3200-class generated program. Lexing each file once into a pre-sized,
// pointer-free token slice brought the large program from about 193 B/B
// to about 58, and the corpus programs from 101-193 to 42-66.
const maxCompileBytesPerSourceByte = 80

// frontendAllocInputs is the paper corpus plus the 3200-class program of
// BenchmarkAnalysisScaling.
func frontendAllocInputs() []engine.Source {
	var out []engine.Source
	for _, b := range bench.All() {
		out = append(out, b.Sources...)
	}
	large, _ := bench.Generate(scalingSpec(3200))
	return append(out, engine.Source{Name: "classes=3200.mcc", Text: large})
}

// TestScanAllAllocatesOnce: lexing a real program is one allocation, the
// token slice, sized up front from the source length.
func TestScanAllAllocatesOnce(t *testing.T) {
	for _, src := range frontendAllocInputs() {
		fset := source.NewFileSet()
		f := fset.AddFile(src.Name, src.Text)
		diags := source.NewDiagnosticList(fset)
		allocs := testing.AllocsPerRun(3, func() {
			if toks := lexer.ScanAll(f, diags); len(toks) < 2 {
				t.Fatalf("%s: no tokens", src.Name)
			}
		})
		if diags.HasErrors() {
			t.Fatalf("%s: lex errors: %v", src.Name, diags.Err())
		}
		if allocs != 1 {
			t.Errorf("%s: lexer.ScanAll made %v allocations, want 1", src.Name, allocs)
		}
	}
}

// TestCompileAllocationBound pins the frontend's allocation volume: bytes
// allocated by one single-worker compile per byte of source.
func TestCompileAllocationBound(t *testing.T) {
	cfg := engine.Config{Workers: 1}
	for _, src := range frontendAllocInputs() {
		compile := func() {
			if err := engine.CompileContext(context.Background(), cfg, src).Err(); err != nil {
				t.Fatalf("%s: %v", src.Name, err)
			}
		}
		compile() // warm lazily built tables
		// The least of three runs: the counter is process-wide, so a
		// stray background allocation can only inflate a reading.
		least := uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			compile()
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
				least = n
			}
		}
		perByte := float64(least) / float64(len(src.Text))
		t.Logf("%s: %.1f B allocated per source byte", src.Name, perByte)
		if perByte > maxCompileBytesPerSourceByte {
			t.Errorf("%s: compile allocated %.1f B per source byte, bound %d", src.Name, perByte, maxCompileBytesPerSourceByte)
		}
	}
}

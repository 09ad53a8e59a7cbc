package cfg_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deadmembers/internal/cfg"
	"deadmembers/internal/engine"
)

var update = flag.Bool("update", false, "rewrite the golden CFG dumps")

// TestGolden compiles every testdata fixture and compares the dump of
// every function's CFG against the checked-in golden file. Run with
// -update to regenerate after intentional builder changes.
func TestGolden(t *testing.T) {
	matches, err := filepath.Glob("testdata/*.mcc")
	if err != nil || len(matches) == 0 {
		t.Fatalf("no testdata fixtures: %v", err)
	}
	for _, path := range matches {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: filepath.Base(path), Text: string(text)})
			if err := res.Err(); err != nil {
				t.Fatalf("fixture does not compile: %v", err)
			}
			var b strings.Builder
			for _, f := range res.Program.AllFuncs() {
				g := cfg.Build(f)
				if g == nil {
					continue
				}
				b.WriteString(g.Dump())
				b.WriteString("\n")
			}
			got := b.String()
			goldenPath := strings.TrimSuffix(path, ".mcc") + ".golden"
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run go test ./internal/cfg -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("CFG dump mismatch for %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestInvariants checks the structural guarantees every graph promises:
// dense creation-order IDs, entry first and exit last, edge symmetry,
// a reachable entry, and non-nil atoms.
func TestInvariants(t *testing.T) {
	matches, _ := filepath.Glob("testdata/*.mcc")
	for _, path := range matches {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		res := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: filepath.Base(path), Text: string(text)})
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Program.AllFuncs() {
			g := cfg.Build(f)
			if g == nil {
				continue
			}
			if err := g.CheckInvariants(); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestDOT sanity-checks the debug renderer on one fixture.
func TestDOT(t *testing.T) {
	res := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "dot.mcc", Text: `
int main() {
    int x = 1;
    if (x > 0) { x = 2; }
    print(x);
    return 0;
}
`})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	fns := res.Program.AllFuncs()
	if len(fns) == 0 {
		t.Fatal("no functions")
	}
	dot := cfg.Build(fns[0]).DOT()
	for _, want := range []string{"digraph cfg", "b0 ->", "shape=box"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

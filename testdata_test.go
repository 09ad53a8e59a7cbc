package deadmembers_test

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"deadmembers"
)

// The testdata programs double as user-facing MC++ examples; each header
// comment states the expected analysis result and runtime behaviour, and
// this test holds them to it.

func readTestdata(t *testing.T, name string) deadmembers.Source {
	t.Helper()
	path := filepath.Join("testdata", name)
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return deadmembers.Source{Name: name, Text: string(text)}
}

func TestTestdataPrograms(t *testing.T) {
	cases := []struct {
		file     string
		wantDead []string
		wantOut  string
	}{
		{
			file:     "shapes.mcc",
			wantDead: []string{"Canvas::undoDepth", "Circle::gradientSteps", "Shape::renderCache"},
			wantOut:  "total=838\n",
		},
		{
			file:     "wordhist.mcc",
			wantDead: []string{"HashMap::maxLoad", "HashMap::rehashes", "HashMap::tombstones"},
			wantOut:  "", // PRNG-derived; checked for shape below
		},
		{
			file:     "matrix.mcc",
			wantDead: nil,
			wantOut:  "trace=4 det-ish=10\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			src := readTestdata(t, tc.file)

			ctx := context.Background()
			comp := compile(t, src)
			res, _, err := comp.Analyze(ctx, deadmembers.Options{})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			var dead []string
			for _, f := range res.DeadMembers() {
				dead = append(dead, f.QualifiedName())
			}
			sort.Strings(dead)
			if strings.Join(dead, ",") != strings.Join(tc.wantDead, ",") {
				t.Errorf("dead members = %v, want %v", dead, tc.wantDead)
			}

			exec, err := comp.Run(ctx, deadmembers.Options{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if exec.ExitCode != 0 {
				t.Errorf("exit = %d, want 0 (output %q)", exec.ExitCode, exec.Output)
			}
			if tc.wantOut != "" && exec.Output != tc.wantOut {
				t.Errorf("output = %q, want %q", exec.Output, tc.wantOut)
			}
			if tc.file == "wordhist.mcc" {
				if !strings.HasPrefix(exec.Output, "buckets=64 max=") || !strings.Contains(exec.Output, "total=200") {
					t.Errorf("wordhist output shape wrong: %q", exec.Output)
				}
			}

			// Each testdata program must also survive the strip transform
			// with identical behaviour.
			out, err := comp.Strip(ctx, deadmembers.Options{}, deadmembers.StripOptions{})
			if err != nil {
				t.Fatalf("strip: %v", err)
			}
			if len(out.RemovedMembers) != len(tc.wantDead) {
				t.Errorf("strip removed %v, want %d members", out.RemovedMembers, len(tc.wantDead))
			}
			after, err := compile(t, out.Sources...).Run(ctx, deadmembers.Options{})
			if err != nil {
				t.Fatalf("stripped run: %v", err)
			}
			if after.Output != exec.Output || after.ExitCode != exec.ExitCode {
				t.Error("strip changed behaviour")
			}
		})
	}
}

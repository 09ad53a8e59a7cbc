package deadmembers_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"deadmembers"
)

// The examples double as the lint golden corpus: each file is linted and
// the rendered findings are held to the golden sets below.

func lintExample(t *testing.T, name string) []string {
	t.Helper()
	path := filepath.Join("examples", "mcc", name)
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := compile(t, deadmembers.Source{Name: name, Text: string(text)}).
		Lint(context.Background(), deadmembers.Options{}, deadmembers.LintOptions{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Degraded() {
		t.Fatalf("%s: degraded: %v", name, res.Failures)
	}
	var out []string
	for _, f := range res.Findings {
		out = append(out, fmt.Sprintf("%d:%d %s %s", f.Line, f.Col, f.Check, f.Member))
	}
	sort.Strings(out)
	return out
}

func TestExamplesPrecisionGolden(t *testing.T) {
	// Golden findings, rendered as "line:col check member".
	golden := map[string][]string{
		"clean.mcc": nil,
		"writeonly.mcc": {
			"10:9 write-only-member Cache::hits",
			"7:25 write-only-member Cache::hits",
		},
		"overwrite.mcc": {"10:9 dead-store Connection::timeout"},
		// The chained stores to o.in.val are a known false negative of
		// the length-one dead-store check.
		"chained.mcc": {"10:23 write-only-member Inner::pad"},
	}

	entries, err := os.ReadDir(filepath.Join("examples", "mcc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden entry; add one", name)
			continue
		}
		if got := lintExample(t, name); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got  %v\n want %v", name, got, want)
		}
	}
}

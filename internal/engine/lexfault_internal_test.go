package engine

import (
	"strings"
	"testing"
)

// faultSources are three files: a.mcc names Beta, the class b.mcc
// declares, in a statement whose parse depends on whether Beta is a known
// type name; b.mcc also holds a lex error.
func faultSources() []Source {
	return []Source{
		{Name: "a.mcc", Text: "int main() { int p; Beta * p; return 0; }\n"},
		{Name: "b.mcc", Text: "class Beta { public: int x; };\nint stray = 1 @ 2;\n"},
		{Name: "c.mcc", Text: "class Gamma { public: int y; };\n"},
	}
}

// TestLexWorkerPanicContained injects a panic into the stage-1a lex of
// b.mcc. It must be contained as exactly one parse-stage Failure; the
// file salvages as an empty AST with none of its diagnostics, and as it
// was never lexed, Beta is not a type name while a.mcc is parsed.
func TestLexWorkerPanicContained(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := Config{Workers: workers, lexFault: func(name string) {
			if name == "b.mcc" {
				panic("injected lex fault")
			}
		}}
		c := Compile(cfg, faultSources()...)
		if len(c.Failures) != 1 {
			t.Fatalf("workers=%d: failures = %v, want exactly one", workers, c.Failures)
		}
		f := c.Failures[0]
		if f.Stage != "parse" || f.Unit != "b.mcc" || !strings.Contains(f.Value, "injected lex fault") {
			t.Fatalf("workers=%d: failure = %+v", workers, f)
		}
		if n := len(c.Program.Files[1].Decls); n != 0 {
			t.Errorf("workers=%d: faulted file kept %d declarations", workers, n)
		}
		got := c.Diags.String()
		if strings.Contains(got, "b.mcc") {
			t.Errorf("workers=%d: faulted file reported diagnostics:\n%s", workers, got)
		}
		if !strings.Contains(got, "undeclared identifier Beta") {
			t.Errorf("workers=%d: Beta parsed as a type name without its file being lexed:\n%s", workers, got)
		}
	}
}

// TestParseWorkerPanicKeepsTypeNames injects a panic into the stage-1b
// parse of b.mcc, after it was lexed: the file still salvages with none
// of its diagnostics, lex errors included, but the type names it
// declares stay known to the other files.
func TestParseWorkerPanicKeepsTypeNames(t *testing.T) {
	cfg := Config{Workers: 4, ParseFault: func(name string) {
		if name == "b.mcc" {
			panic("injected parse fault")
		}
	}}
	c := Compile(cfg, faultSources()...)
	if len(c.Failures) != 1 || c.Failures[0].Stage != "parse" || c.Failures[0].Unit != "b.mcc" {
		t.Fatalf("failures = %v, want one parse failure in b.mcc", c.Failures)
	}
	got := c.Diags.String()
	if strings.Contains(got, "b.mcc") {
		t.Errorf("faulted file reported diagnostics:\n%s", got)
	}
	if strings.Contains(got, "undeclared identifier Beta") {
		t.Errorf("Beta was not a type name while a.mcc was parsed:\n%s", got)
	}
}

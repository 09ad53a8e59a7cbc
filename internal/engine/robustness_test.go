package engine_test

import (
	"strings"
	"testing"
	"testing/quick"

	"deadmembers/internal/engine"
	"deadmembers/internal/source"
)

// TestFrontendNeverPanics drives the whole frontend (lexer, parser, sema)
// with structured garbage: random token soup assembled from MC++
// vocabulary. The frontend must terminate and either produce a program or
// diagnostics — never panic or hang. The engine contains a panic as a
// Failure instead of crashing, so every test here also requires that
// no Failure was recorded.
func TestFrontendNeverPanics(t *testing.T) {
	vocab := []string{
		"class", "struct", "union", "public", ":", ";", "{", "}", "(", ")",
		"[", "]", "int", "double", "char", "bool", "void", "virtual",
		"volatile", "const", "*", "&", "->", ".", "::", "->*", ".*", "=",
		"+", "-", "/", "%", "new", "delete", "sizeof", "this", "nullptr",
		"if", "else", "while", "for", "switch", "case", "default", "return",
		"break", "continue", "do", "x", "y", "C", "f", "main", "0", "1",
		"42", "1.5", "'c'", `"s"`, ",", "?", "~", "!",
	}
	check := func(picks []uint16) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(vocab[int(p)%len(vocab)])
			b.WriteByte(' ')
		}
		r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "garbage.mcc", Text: b.String()})
		return r != nil && r.Program != nil && len(r.Failures) == 0
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestFrontendNeverPanicsOnBytes feeds raw random bytes.
func TestFrontendNeverPanicsOnBytes(t *testing.T) {
	check := func(data []byte) bool {
		r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "bytes.mcc", Text: string(data)})
		return r != nil && r.Diags != nil && len(r.Failures) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestTruncatedPrograms checks that every prefix of a valid program is
// handled gracefully (the classic incremental-editing scenario for the
// IDE use case the paper mentions).
func TestTruncatedPrograms(t *testing.T) {
	full := `
class A { public: int x; virtual int f() { return x; } };
class B : public A { public: int y; B() : y(1) {} virtual int f() { return y; } };
int main() { B b; A* p = &b; return p->f(); }
`
	for i := 0; i <= len(full); i += 7 {
		r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "part.mcc", Text: full[:i]})
		if r == nil || r.Program == nil {
			t.Fatalf("prefix of length %d: frontend returned nil", i)
		}
		if len(r.Failures) != 0 {
			t.Fatalf("prefix of length %d: contained panic: %v", i, r.Failures)
		}
	}
}

// TestDeepNestingBounded feeds pathologically nested input that would
// overflow the goroutine stack without the parser's depth guard. Each case
// must terminate with a "nesting too deep" diagnostic, never crash.
func TestDeepNestingBounded(t *testing.T) {
	const n = 20000
	cases := []struct{ name, src string }{
		{"parens", "int main() { return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }"},
		{"unary", "int main() { return " + strings.Repeat("!", n) + "1; }"},
		{"blocks", "int main() { " + strings.Repeat("{", n) + strings.Repeat("}", n) + " return 0; }"},
		{"ternary", "int main() { return " + strings.Repeat("1 ? ", n) + "1" + strings.Repeat(" : 1", n) + "; }"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "deep.mcc", Text: c.src})
			if r == nil || r.Program == nil {
				t.Fatal("frontend returned nil on deeply nested input")
			}
			if len(r.Failures) != 0 {
				t.Fatalf("contained panic: %v", r.Failures)
			}
			if !strings.Contains(r.Diags.String(), "nesting too deep") {
				t.Fatalf("expected a nesting-depth diagnostic, got:\n%s", r.Diags.String())
			}
		})
	}
}

// TestOversizedFileRejected: inputs past source.MaxFileSize are rejected
// with a diagnostic instead of being lexed.
func TestOversizedFileRejected(t *testing.T) {
	big := strings.Repeat("x", source.MaxFileSize+1)
	r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "big.mcc", Text: big})
	if r == nil || !r.Diags.HasErrors() {
		t.Fatal("oversized file was not rejected")
	}
	if len(r.Failures) != 0 {
		t.Fatalf("contained panic: %v", r.Failures)
	}
	if !strings.Contains(r.Diags.String(), "file too large") {
		t.Fatalf("expected a file-too-large diagnostic, got:\n%s", r.Diags.String())
	}
}

package deadmembers_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/engine"
	"deadmembers/internal/printer"
)

var updateFrontendGolden = flag.Bool("update-frontend-golden", false, "rewrite testdata/frontend.golden")

// frontendGoldenPath pins, for every input below, the compile's
// Diags.Err() text and a SHA-256 of the printed ASTs. It was recorded
// before the frontend's lexer and parser were reworked and must not move:
// diagnostics and trees are part of every CLI's output.
const frontendGoldenPath = "testdata/frontend.golden"

// frontendGoldenInput is one named compile: one or more source files.
type frontendGoldenInput struct {
	name    string
	sources []engine.Source
}

// malformedSnippets exercises every lexer diagnostic and the parser's
// "expected X, found Y" rendering of each token class.
var malformedSnippets = []struct{ name, text string }{
	{"unterminated-block-comment", "int main() { return 0; }\n/* never closed\nint x;"},
	{"unterminated-char", "int main() { char c = 'a; return 0; }"},
	{"unterminated-char-at-eof", "int main() { char c = '"},
	{"unterminated-string", "int main() { println \"abc; return 0; }"},
	{"string-across-newline", "int main() { println \"ab\ncd\"; return 0; }"},
	{"bad-escape-char", `int main() { char c = '\q'; return 0; }`},
	{"bad-escape-string", `int main() { println "a\zb"; return 0; }`},
	{"backslash-at-eof", `int main() { char c = '\`},
	{"hex-no-digits", "int main() { return 0x; }"},
	{"hex-no-digits-upper", "int main() { int a = 0X + 1; return a; }"},
	{"stray-at", "int main() { int a@ = 1; return a; }"},
	{"stray-dollar", "int main() { return $; }"},
	{"stray-backtick-hash", "class A { int x; `# };\nint main() { return 0; }"},
	{"stray-high-byte", "int main() { int \xc3\xa9 = 1; return \xff; }"},
	{"stray-nul", "int main() { return 0;\x00 }"},
	{"nesting-1001-parens", "int main() { return " + strings.Repeat("(", 1001) + "1" + strings.Repeat(")", 1001) + "; }"},
	{"nesting-1001-blocks", "int main() { " + strings.Repeat("{", 1001) + strings.Repeat("}", 1001) + " return 0; }"},
	{"nesting-1001-unary", "int main() { return " + strings.Repeat("-", 1001) + "1; }"},
	{"found-identifier", "class A { int x } int main() { return 0; }"},
	{"found-int-literal", "int main() { return 1 2; }"},
	{"found-float-literal", "int main() { int a = (1.5e3 2.5); return a; }"},
	{"found-char-literal", "int main() { int a = 'c' 'd'; return a; }"},
	{"found-string-literal", "int main() { return \"s\" \"t\"; }"},
	{"found-keyword", "int main() { int class = 1; return class; }"},
	{"found-operator", "class { int x; }; int main() { return 0; }"},
	{"found-scope-arrowstar", "int main() { return :: ->* .*; }"},
	{"found-eof", "class A { public: int x;"},
	{"found-invalid", "int main() { return @; }"},
	{"expected-type", "class A { public: 42 x; }; int main() { return 0; }"},
	{"bad-int-literal", "int main() { return 99999999999999999999; }"},
	{"bad-dtor-name", "class A { public: ~B() {} }; int main() { return 0; }"},
	{"empty", ""},
	{"only-comment", "// nothing here"},
	{"semantic-errors", "class A { public: int x; }; int main() { A a; return a.y + z; }"},
}

// frontendGoldenInputs gathers the checked-in fuzz corpus, the paper
// corpus, the testdata programs, the malformed snippets, and one
// multi-file program with errors in each file (diagnostic order across
// files).
func frontendGoldenInputs(t *testing.T) []frontendGoldenInput {
	t.Helper()
	var out []frontendGoldenInput
	fuzzFiles, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fuzzFiles {
		text := decodeFuzzCorpusFile(t, p)
		name := filepath.ToSlash(strings.TrimPrefix(p, "testdata"+string(filepath.Separator)))
		out = append(out, frontendGoldenInput{name, []engine.Source{{Name: filepath.Base(p) + ".mcc", Text: text}}})
	}
	for _, b := range bench.All() {
		out = append(out, frontendGoldenInput{"corpus/" + b.Name, b.Sources})
	}
	programs, err := filepath.Glob(filepath.Join("testdata", "*.mcc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range programs {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frontendGoldenInput{"testdata/" + filepath.Base(p), []engine.Source{{Name: filepath.Base(p), Text: string(text)}}})
	}
	for _, s := range malformedSnippets {
		out = append(out, frontendGoldenInput{"snippet/" + s.name, []engine.Source{{Name: s.name + ".mcc", Text: s.text}}})
	}
	out = append(out, frontendGoldenInput{"multi-file", []engine.Source{
		{Name: "a.mcc", Text: "class A { public: int x; };\nint f() { return 'q; }\nint g( { }"},
		{Name: "b.mcc", Text: "class B : public A { public: int y@; };\n/* open"},
		{Name: "c.mcc", Text: "int main() { B b; return b.y + 0x; }"},
	}})
	return out
}

// decodeFuzzCorpusFile reads a "go test fuzz v1" file holding one string
// or []byte argument.
func decodeFuzzCorpusFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(data)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-argument fuzz corpus file", path)
	}
	arg := lines[1]
	for _, prefix := range []string{"string(", "[]byte("} {
		if strings.HasPrefix(arg, prefix) && strings.HasSuffix(arg, ")") {
			s, err := strconv.Unquote(arg[len(prefix) : len(arg)-1])
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			return s
		}
	}
	t.Fatalf("%s: unsupported argument %.40q", path, arg)
	return ""
}

// frontendGoldenRecord renders one input's compile as golden lines: the
// Diags.Err() text (quoted, so it stays on one line) and the hash of the
// printed ASTs in file order.
func frontendGoldenRecord(in frontendGoldenInput) string {
	c := engine.Compile(engine.Config{Workers: 1}, in.sources...)
	errText := "<nil>"
	if err := c.Diags.Err(); err != nil {
		errText = err.Error()
	}
	h := sha256.New()
	for _, f := range c.Program.Files {
		fmt.Fprintf(h, "%s\n%s\n", f.Name, printer.Print(f))
	}
	return fmt.Sprintf("== %s\nerr: %s\nast: %x\n", in.name, strconv.Quote(errText), h.Sum(nil))
}

// TestFrontendDiagnosticsGolden holds every compile's diagnostics and
// trees to the recorded golden file. Run with -update-frontend-golden to
// rewrite it after an intended change to the frontend's output.
func TestFrontendDiagnosticsGolden(t *testing.T) {
	var b strings.Builder
	for _, in := range frontendGoldenInputs(t) {
		b.WriteString(frontendGoldenRecord(in))
	}
	got := b.String()
	if *updateFrontendGolden {
		if err := os.WriteFile(frontendGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(frontendGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestFrontendDiagnosticsGolden -update-frontend-golden .): %v", err)
	}
	if got == string(want) {
		return
	}
	gotRecs, wantRecs := splitGoldenRecords(got), splitGoldenRecords(string(want))
	for name, w := range wantRecs {
		if g, ok := gotRecs[name]; !ok {
			t.Errorf("%s: input missing", name)
		} else if g != w {
			t.Errorf("%s: frontend output changed\n got: %s\nwant: %s", name, g, w)
		}
	}
	for name := range gotRecs {
		if _, ok := wantRecs[name]; !ok {
			t.Errorf("%s: input not in golden", name)
		}
	}
	if !t.Failed() {
		t.Error("golden differs in record order")
	}
}

// splitGoldenRecords maps each "== name" header to the lines under it.
func splitGoldenRecords(s string) map[string]string {
	out := map[string]string{}
	var name string
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "== ") {
			name = line[3:]
			continue
		}
		out[name] += line + "\n"
	}
	return out
}

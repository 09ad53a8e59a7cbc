package printer_test

import (
	"strings"
	"testing"

	"deadmembers/internal/bench"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/interp"
	"deadmembers/internal/printer"
)

// roundTrip compiles src, prints it, recompiles the output, and returns
// both results.
func roundTrip(t *testing.T, name, src string) (orig, reprinted *engine.Compilation, printed string) {
	t.Helper()
	orig = engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: name, Text: src})
	if err := orig.Err(); err != nil {
		t.Fatalf("original does not compile:\n%v", err)
	}
	printed = printer.Print(orig.Program.Files[0])
	reprinted = engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: name + ".printed", Text: printed})
	if err := reprinted.Err(); err != nil {
		t.Fatalf("printed output does not compile:\n%v\n---- printed ----\n%s", err, printed)
	}
	return orig, reprinted, printed
}

func TestRoundTripSmall(t *testing.T) {
	src := `
class Base {
public:
	int b;
	virtual int f() { return b; }
	virtual ~Base() {}
};
class D : public Base, public virtual Base2 {
public:
	int arr[4];
	double d;
	volatile int flag;
	int D2::* pm;
	D(int v) : Base(), d(1.5) { arr[0] = v; pm = &D2::w; }
	virtual int f() { return arr[0] + (int)d + this->Base::b; }
};
class Base2 { public: int z; };
class D2 { public: int w; };
union U { int i; char c; };
int global = 3;
int helper(int* p) { return *p + sizeof(D2); }
int main() {
	D x(2);
	D* px = &x;
	U u;
	u.i = 1;
	switch (x.f()) {
	case 0: return 0;
	case 1:
	case 2: break;
	default: break;
	}
	for (int i = 0; i < 3; i++) { continue; }
	while (false) {}
	do { u.i += 1; } while (u.i < 0);
	int acc = px->f() + helper(&global) + (true ? u.i : 0) - -5 + 'a';
	D2 d2;
	acc = acc + d2.*(px->pm);
	print("ok\n");
	return acc % 256;
}
`
	orig, reprinted, _ := roundTrip(t, "rt.mcc", src)

	// Same program behaviour.
	r1, err := interp.Run(orig.Program, orig.Hierarchy, interp.Options{})
	if err != nil {
		t.Fatalf("original run: %v", err)
	}
	r2, err := interp.Run(reprinted.Program, reprinted.Hierarchy, interp.Options{})
	if err != nil {
		t.Fatalf("reprinted run: %v", err)
	}
	if r1.ExitCode != r2.ExitCode || r1.Output != r2.Output {
		t.Fatalf("behaviour changed: %d/%q vs %d/%q", r1.ExitCode, r1.Output, r2.ExitCode, r2.Output)
	}
}

// TestRoundTripCorpus: every corpus benchmark must print, re-parse, run
// identically, and yield the identical dead-member analysis — a strong
// whole-system property test of parser, printer, and analysis together.
func TestRoundTripCorpus(t *testing.T) {
	for _, bm := range bench.All() {
		t.Run(bm.Name, func(t *testing.T) {
			orig, reprinted, _ := roundTrip(t, bm.Name, bm.Sources[0].Text)

			a1 := deadmember.Analyze(orig.Program, orig.Hierarchy, deadmember.Options{CallGraph: callgraph.RTA})
			a2 := deadmember.Analyze(reprinted.Program, reprinted.Hierarchy, deadmember.Options{CallGraph: callgraph.RTA})
			d1, d2 := names(a1), names(a2)
			if strings.Join(d1, ",") != strings.Join(d2, ",") {
				t.Fatalf("dead sets differ after round trip:\n%v\nvs\n%v", d1, d2)
			}

			r1, err := interp.Run(orig.Program, orig.Hierarchy, interp.Options{})
			if err != nil {
				t.Fatalf("original run: %v", err)
			}
			r2, err := interp.Run(reprinted.Program, reprinted.Hierarchy, interp.Options{})
			if err != nil {
				t.Fatalf("reprinted run: %v", err)
			}
			if r1.Output != r2.Output || r1.ExitCode != r2.ExitCode {
				t.Fatalf("behaviour changed after round trip")
			}
		})
	}
}

func names(res *deadmember.Result) []string {
	var out []string
	for _, f := range res.DeadMembers() {
		out = append(out, f.QualifiedName())
	}
	return out
}

// TestIdempotent: printing the reprinted program yields identical text.
func TestIdempotent(t *testing.T) {
	bm, err := bench.ByName("richards")
	if err != nil {
		t.Fatal(err)
	}
	_, reprinted, printed := roundTrip(t, "richards", bm.Sources[0].Text)
	again := printer.Print(reprinted.Program.Files[0])
	if printed != again {
		t.Fatal("printer is not idempotent")
	}
}

func TestPrintExpr(t *testing.T) {
	r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "e.mcc", Text: `
int main() { int a = 1; int b = 2; return a + b * 3; }
`})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	out := printer.Print(r.Program.Files[0])
	if !strings.Contains(out, "a + (b * 3)") {
		t.Errorf("expected parenthesized rendering, got:\n%s", out)
	}
}

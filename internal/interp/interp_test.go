package interp_test

import (
	"strings"
	"testing"

	"deadmembers/internal/engine"
	"deadmembers/internal/heapsim"
	"deadmembers/internal/interp"
)

// run compiles and executes src, failing the test on any error.
func run(t *testing.T, src string) *interp.Result {
	t.Helper()
	res, err := tryRun(t, src)
	if err != nil {
		t.Fatalf("runtime error: %v", err)
	}
	return res
}

func tryRun(t *testing.T, src string) (*interp.Result, error) {
	t.Helper()
	r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("compile errors:\n%v", err)
	}
	return interp.Run(r.Program, r.Hierarchy, interp.Options{})
}

func expectExit(t *testing.T, src string, want int) {
	t.Helper()
	res := run(t, src)
	if res.ExitCode != want {
		t.Fatalf("exit code = %d, want %d", res.ExitCode, want)
	}
}

func expectOutput(t *testing.T, src, want string) {
	t.Helper()
	res := run(t, src)
	if res.Output != want {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

func expectRuntimeError(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := tryRun(t, src)
	if err == nil {
		t.Fatalf("expected runtime error containing %q, got success", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error = %v, want substring %q", err, wantSub)
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	expectExit(t, `
int main() {
	int sum = 0;
	for (int i = 1; i <= 10; i++) { sum += i; }
	int j = 0;
	while (j < 3) { j++; }
	do { j++; } while (j < 5);
	if (sum == 55 && j == 5) { return 42; } else { return 1; }
}`, 42)
}

func TestSwitch(t *testing.T) {
	expectExit(t, `
int pick(int v) {
	switch (v) {
	case 1: return 10;
	case 2:
	case 3: return 20;
	default: return 30;
	}
	return -1;
}
int main() { return pick(1) + pick(2) + pick(3) + pick(9); }`, 10+20+20+30)
}

func TestRecursionAndGlobals(t *testing.T) {
	expectExit(t, `
int calls = 0;
int fib(int n) {
	calls = calls + 1;
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
int main() { return fib(10) + (calls > 0 ? 1 : 0); }`, 56)
}

func TestClassConstructionAndMethods(t *testing.T) {
	expectExit(t, `
class Point {
public:
	int x;
	int y;
	Point(int ax, int ay) : x(ax), y(ay) {}
	int manhattan() { return x + y; }
};
int main() {
	Point p(3, 4);
	return p.manhattan();
}`, 7)
}

func TestVirtualDispatch(t *testing.T) {
	expectExit(t, `
class Shape {
public:
	virtual int area() { return 0; }
};
class Square : public Shape {
public:
	int side;
	Square(int s) : side(s) {}
	virtual int area() { return side * side; }
};
class Rect : public Shape {
public:
	int w; int h;
	Rect(int aw, int ah) : w(aw), h(ah) {}
	virtual int area() { return w * h; }
};
int main() {
	Shape* shapes[3];
	Shape s;
	Square sq(3);
	Rect r(2, 5);
	shapes[0] = &s;
	shapes[1] = &sq;
	shapes[2] = &r;
	int total = 0;
	for (int i = 0; i < 3; i++) { total += shapes[i]->area(); }
	return total;
}`, 0+9+10)
}

func TestPureVirtualAndOverride(t *testing.T) {
	expectExit(t, `
class Abstract {
public:
	virtual int value() = 0;
	int twice() { return value() * 2; }
};
class Impl : public Abstract {
public:
	virtual int value() { return 21; }
};
int main() {
	Impl i;
	Abstract* a = &i;
	return a->twice();
}`, 42)
}

func TestConstructorChainAndDestructorOrder(t *testing.T) {
	expectOutput(t, `
class A {
public:
	A() { print("A+"); }
	~A() { print("A-"); }
};
class B : public A {
public:
	A inner;
	B() { print("B+"); }
	~B() { print("B-"); }
};
int main() {
	B b;
	print("|");
	return 0;
}`, "A+A+B+|B-A-A-")
}

func TestVirtualBaseConstructedOnce(t *testing.T) {
	expectOutput(t, `
class V {
public:
	int v;
	V() : v(7) { print("V"); }
};
class L : public virtual V { public: L() { print("L"); } };
class R : public virtual V { public: R() { print("R"); } };
class D : public L, public R {
public:
	D() { print("D"); }
};
int main() {
	D d;
	print(d.v);
	return 0;
}`, "VLRD7")
}

func TestNewDeleteAndDtor(t *testing.T) {
	expectOutput(t, `
class Res {
public:
	int id;
	Res(int i) : id(i) {}
	~Res() { print(id); }
};
int main() {
	Res* a = new Res(1);
	Res* b = new Res(2);
	delete b;
	delete a;
	return 0;
}`, "21")
}

func TestVirtualDestructor(t *testing.T) {
	expectOutput(t, `
class Base {
public:
	virtual ~Base() { print("B"); }
};
class Derived : public Base {
public:
	~Derived() { print("D"); }
};
int main() {
	Base* p = new Derived();
	delete p; // dynamic class's destructor chain must run
	return 0;
}`, "DB")
}

func TestArraysAndPointerArithmetic(t *testing.T) {
	expectExit(t, `
int main() {
	int a[5];
	for (int i = 0; i < 5; i++) { a[i] = i * i; }
	int* p = &a[1];
	p = p + 2;     // points at a[3]
	int d = p - &a[0];
	return *p + d; // 9 + 3
}`, 12)
}

func TestNewArrayOfObjects(t *testing.T) {
	expectExit(t, `
class Cnt {
public:
	int n;
	Cnt() : n(1) {}
};
int main() {
	Cnt* cs = new Cnt[4];
	int total = 0;
	for (int i = 0; i < 4; i++) { total += cs[i].n; }
	delete[] cs;
	return total;
}`, 4)
}

func TestMemberPointers(t *testing.T) {
	expectExit(t, `
class P {
public:
	int x;
	int y;
	P(int a, int b) : x(a), y(b) {}
};
int main() {
	int P::* pm = &P::x;
	P p(30, 12);
	int first = p.*pm;
	pm = &P::y;
	P* pp = &p;
	return first + pp->*pm;
}`, 42)
}

func TestStringsAndPrint(t *testing.T) {
	expectOutput(t, `
int main() {
	print("x=");
	print(41 + 1);
	println();
	print('c');
	print(true);
	print(2.5);
	return 0;
}`, "x=42\nctrue2.5")
}

func TestMallocFreeAndCasts(t *testing.T) {
	expectExit(t, `
int main() {
	int* p = (int*)malloc(16);
	p[0] = 40;
	p[1] = 2;
	int r = p[0] + p[1];
	free((void*)p);
	return r;
}`, 42)
}

func TestImplicitThisAccess(t *testing.T) {
	expectExit(t, `
class Acc {
public:
	int total;
	Acc() : total(0) {}
	void add(int v) { total += v; }
	int get() { return total; }
};
int main() {
	Acc a;
	a.add(40);
	a.add(2);
	return a.get();
}`, 42)
}

func TestQualifiedCallBypassesDispatch(t *testing.T) {
	expectExit(t, `
class A { public: virtual int f() { return 1; } };
class B : public A { public: virtual int f() { return 2; } };
int main() {
	B b;
	A* p = &b;
	return p->f() * 10 + b.A::f(); // dynamic 2, static 1
}`, 21)
}

func TestCopySemantics(t *testing.T) {
	expectExit(t, `
class V { public: int n; V(int a) : n(a) {} };
int main() {
	V a(5);
	V b = a;   // copy
	b.n = 9;   // must not affect a
	return a.n * 10 + b.n;
}`, 59)
}

func TestRandDeterminism(t *testing.T) {
	src := `
int main() {
	rand_seed(123);
	int total = 0;
	for (int i = 0; i < 10; i++) { total += rand_next(100); }
	return total;
}`
	a := run(t, src).ExitCode
	b := run(t, src).ExitCode
	if a != b {
		t.Fatalf("rand_next must be deterministic: %d vs %d", a, b)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"div by zero", `int main() { int z = 0; return 1 / z; }`, "division by zero"},
		{"null deref", `int main() { int* p = nullptr; return *p; }`, "null pointer dereference"},
		{"index oob", `int main() { int a[3]; return a[5]; }`, "out of range"},
		{"double delete", `class C { public: int x; }; int main() { C* p = new C(); delete p; delete p; return 0; }`, "double delete"},
		{"use after free", `int main() { int* p = new int(5); delete p; return *p; }`, "use after free"},
		{"mismatched delete", `int main() { int* p = new int[3]; delete p; return 0; }`, "delete[]"},
		{"abort", `int main() { abort(); return 0; }`, "abort"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectRuntimeError(t, tc.src, tc.want)
		})
	}
}

func TestStepLimitConfigurable(t *testing.T) {
	r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "t.mcc", Text: `
int main() { int s = 0; for (int i = 0; i < 1000000; i++) { s++; } return 0; }`})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	_, err := interp.Run(r.Program, r.Hierarchy, interp.Options{MaxSteps: 1000})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("want step-limit error, got %v", err)
	}
}

func TestLedgerAccounting(t *testing.T) {
	src := `
class Small { public: int a; };           // 4 bytes
class Big { public: double d; int arr[4]; }; // 8 + 16 -> 24 bytes
int main() {
	Small s;          // +4
	Big* b1 = new Big(); // +24
	Big* b2 = new Big(); // +24 (peak: 52)
	delete b1;          // -24
	Big* b3 = new Big(); // +24 (52 again)
	delete b2;
	delete b3;
	return 0;
}`
	r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	led := heapsim.New()
	if _, err := interp.Run(r.Program, r.Hierarchy, interp.Options{Ledger: led}); err != nil {
		t.Fatal(err)
	}
	if led.TotalObjects != 4 {
		t.Fatalf("total objects = %d, want 4", led.TotalObjects)
	}
	if led.TotalBytes != 4+24*3 {
		t.Fatalf("total bytes = %d, want 76", led.TotalBytes)
	}
	if led.HighWater != 52 {
		t.Fatalf("high water = %d, want 52", led.HighWater)
	}
	if led.LiveBytes != 0 {
		t.Fatalf("live bytes after run = %d, want 0 (all freed)", led.LiveBytes)
	}
}

func TestLedgerCountsEmbeddedOnce(t *testing.T) {
	src := `
class Inner { public: int v; };
class Outer { public: Inner in; int pad; };
int main() {
	Outer o; // a single 8-byte allocation; Inner is embedded, not separate
	return 0;
}`
	r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	led := heapsim.New()
	if _, err := interp.Run(r.Program, r.Hierarchy, interp.Options{Ledger: led}); err != nil {
		t.Fatal(err)
	}
	if led.TotalObjects != 1 {
		t.Fatalf("total objects = %d, want 1 (embedded member not separate)", led.TotalObjects)
	}
	if led.TotalBytes != 8 {
		t.Fatalf("total bytes = %d, want 8", led.TotalBytes)
	}
}

func TestBlockScopedDestruction(t *testing.T) {
	expectOutput(t, `
class T {
public:
	int id;
	T(int i) : id(i) {}
	~T() { print(id); }
};
int main() {
	T outer(1);
	{
		T inner(2);
	}          // inner destroyed here
	print("|");
	return 0;  // outer destroyed here
}`, "2|1")
}

func TestLoopIterationScopeDestruction(t *testing.T) {
	src := `
class T { public: int x; };
int main() {
	for (int i = 0; i < 100; i++) {
		T t; // must be destroyed每 iteration, not accumulate
	}
	return 0;
}`
	src = strings.Replace(src, "每", "each", 1)
	r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	led := heapsim.New()
	if _, err := interp.Run(r.Program, r.Hierarchy, interp.Options{Ledger: led}); err != nil {
		t.Fatal(err)
	}
	if led.TotalObjects != 100 {
		t.Fatalf("total objects = %d, want 100", led.TotalObjects)
	}
	if led.HighWater != 4 {
		t.Fatalf("high water = %d, want 4 (one T at a time)", led.HighWater)
	}
}

func TestGlobalObjectLifecycle(t *testing.T) {
	expectOutput(t, `
class G {
public:
	G() { print("+"); }
	~G() { print("-"); }
};
G g1;
G g2;
int main() { print("M"); return 0; }`, "++M--")
}

func TestUnionStorage(t *testing.T) {
	expectExit(t, `
union U { int i; double d; };
int main() {
	U u;
	u.i = 42;
	return u.i;
}`, 42)
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func write(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunsProgram(t *testing.T) {
	path := write(t, "hello.mcc", `
int main() { print("hello "); print(2+2*10); println(); return 3; }`)
	var out, errOut strings.Builder
	code := run([]string{path}, &out, &errOut)
	if code != 3 {
		t.Fatalf("exit = %d, want the program's return value 3 (stderr: %s)", code, errOut.String())
	}
	if out.String() != "hello 22\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestProfileFlag(t *testing.T) {
	path := write(t, "p.mcc", `
class Box { public: int keep; int waste; Box() : keep(1), waste(2) {} };
int main() {
	Box* b = new Box();
	int r = b->keep;
	delete b;
	return r;
}`)
	var out, errOut strings.Builder
	code := run([]string{"-profile", path}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	prof := errOut.String()
	for _, want := range []string{"heap profile", "objects allocated:        1", "dead data member space:   4 bytes"} {
		if !strings.Contains(prof, want) {
			t.Errorf("profile missing %q:\n%s", want, prof)
		}
	}
}

func TestMaxStepsFlag(t *testing.T) {
	path := write(t, "loop.mcc", `
int main() { int s = 0; for (int i = 0; i < 100000; i++) { s++; } return 0; }`)
	var out, errOut strings.Builder
	if code := run([]string{"-max-steps", "50", "-profile", path}, &out, &errOut); code != 1 {
		t.Fatalf("step-limited run should exit 1, got %d", code)
	}
	if !strings.Contains(errOut.String(), "step limit") {
		t.Errorf("stderr missing step-limit error:\n%s", errOut.String())
	}
}

func TestRuntimeErrorReported(t *testing.T) {
	path := write(t, "crash.mcc", `
int main() { int* p = nullptr; return *p; }`)
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Fatalf("runtime error should exit 1, got %d", code)
	}
	if !strings.Contains(errOut.String(), "null pointer dereference") {
		t.Errorf("stderr missing runtime error:\n%s", errOut.String())
	}
}

func TestUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args should exit 2, got %d", code)
	}
}

func TestMissingInputExit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.mcc")
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Errorf("missing input should exit 1, got %d", code)
	}
	msg := errOut.String()
	if !strings.HasPrefix(msg, "mccrun: ") || strings.Count(strings.TrimRight(msg, "\n"), "\n") != 0 {
		t.Errorf("want a one-line mccrun diagnostic, got:\n%s", msg)
	}
	if strings.Contains(msg, "goroutine") {
		t.Errorf("diagnostic must not include a Go stack trace:\n%s", msg)
	}
}

func TestTimeoutAbortsRun(t *testing.T) {
	path := write(t, "spin.mcc", `
int main() { int n = 0; while (true) { n = n + 1; } return n; }`)
	var out, errOut strings.Builder
	start := time.Now()
	if code := run([]string{"-timeout", "50ms", path}, &out, &errOut); code != 1 {
		t.Fatalf("timed-out run should exit 1, got %d", code)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run took %v to honor a 50ms timeout", elapsed)
	}
	if !strings.Contains(errOut.String(), "deadline") {
		t.Errorf("stderr missing deadline diagnostic:\n%s", errOut.String())
	}
}

func TestEngineFlag(t *testing.T) {
	path := write(t, "eng.mcc", `
class Node { public: int v; Node* next; Node(int x) : v(x), next(nullptr) {} };
int main() {
	Node* head = nullptr;
	int sum = 0;
	for (int i = 0; i < 50; i++) { Node* n = new Node(i); n->next = head; head = n; }
	while (head != nullptr) { sum = sum + head->v; Node* d = head; head = head->next; delete d; }
	print(sum); println();
	return 0;
}`)
	runOne := func(engine string) (string, string, int) {
		var out, errOut strings.Builder
		code := run([]string{"-engine", engine, "-profile", path}, &out, &errOut)
		return out.String(), errOut.String(), code
	}
	treeOut, treeErr, treeCode := runOne("tree")
	vmOut, vmErr, vmCode := runOne("vm")
	if treeCode != vmCode {
		t.Fatalf("exit codes differ: tree=%d vm=%d", treeCode, vmCode)
	}
	if treeOut != vmOut {
		t.Errorf("stdout differs:\ntree: %q\nvm:   %q", treeOut, vmOut)
	}
	if treeErr != vmErr {
		t.Errorf("heap profile differs:\ntree:\n%s\nvm:\n%s", treeErr, vmErr)
	}
}

func TestEngineFlagRejected(t *testing.T) {
	path := write(t, "e.mcc", `int main() { return 0; }`)
	var out, errOut strings.Builder
	if code := run([]string{"-engine", "jit", path}, &out, &errOut); code != 2 {
		t.Fatalf("bad -engine should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), `unknown engine "jit"`) {
		t.Errorf("stderr missing engine diagnostic:\n%s", errOut.String())
	}
}

// TestPrecisionFlagRejected: lint has one tier, so even the old default
// spelling -precision=flow is a usage error.
func TestPrecisionFlagRejected(t *testing.T) {
	path := write(t, "e.mcc", `int main() { return 0; }`)
	var out, errOut strings.Builder
	if code := run([]string{"-precision=flow", path}, &out, &errOut); code != 2 {
		t.Fatalf("-precision should exit 2, got %d", code)
	}
	if !strings.Contains(errOut.String(), "-precision") {
		t.Errorf("stderr missing flag diagnostic:\n%s", errOut.String())
	}
}

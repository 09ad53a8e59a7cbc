package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deadmembers/internal/server"
)

const sample = `
class Gadget {
public:
	int used;
	int unused;   // dead: write-only
	Gadget() : used(1), unused(2) {}
};
int main() {
	Gadget g;
	return g.used;
}
`

func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sample.mcc")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportsDeadMembers(t *testing.T) {
	path := writeSample(t)
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Gadget::unused") {
		t.Errorf("output missing dead member:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1 dead (50.0%)") {
		t.Errorf("output missing stats line:\n%s", out.String())
	}
}

func TestVerboseListsLiveMembers(t *testing.T) {
	path := writeSample(t)
	var out, errOut strings.Builder
	if code := run([]string{"-v", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "Gadget::used") || !strings.Contains(out.String(), "read") {
		t.Errorf("verbose output missing live member with reason:\n%s", out.String())
	}
}

func TestVerbosePrintsStageTimings(t *testing.T) {
	path := writeSample(t)
	var out, errOut strings.Builder
	if code := run([]string{"-verbose", "-parallel", "2", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	for _, stage := range []string{"engine stage timings", "parse", "sema", "callgraph", "liveness", "total"} {
		if !strings.Contains(s, stage) {
			t.Errorf("-verbose output missing %q stage:\n%s", stage, s)
		}
	}
}

func TestCallGraphFlag(t *testing.T) {
	path := writeSample(t)
	for _, mode := range []string{"rta", "cha", "all"} {
		var out, errOut strings.Builder
		if code := run([]string{"-callgraph", mode, path}, &out, &errOut); code != 0 {
			t.Errorf("-callgraph %s: exit %d", mode, code)
		}
	}
	var out, errOut strings.Builder
	if code := run([]string{"-callgraph", "bogus", path}, &out, &errOut); code != 2 {
		t.Errorf("bogus mode should exit 2, got %d", code)
	}
}

func TestPerClassAndUnreachableFlags(t *testing.T) {
	path := writeSample(t)
	var out, errOut strings.Builder
	if code := run([]string{"-classes", "-unreachable", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	s := out.String()
	if !strings.Contains(s, "per-class breakdown") || !strings.Contains(s, "Gadget") {
		t.Errorf("missing per-class breakdown:\n%s", s)
	}
	if !strings.Contains(s, "unreachable function") {
		t.Errorf("missing unreachable section:\n%s", s)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args should exit 2, got %d", code)
	}
	if code := run([]string{"/does/not/exist.mcc"}, &out, &errOut); code != 1 {
		t.Errorf("missing file should exit 1, got %d", code)
	}
	if code := run([]string{"-precision=flow", "/does/not/exist.mcc"}, &out, &errOut); code != 2 {
		t.Errorf("-precision should exit 2, got %d", code)
	}
}

func TestAnalysisFlags(t *testing.T) {
	src := `
class LibBase {
public:
	virtual void onEvent() {}
	int libdata;
};
class App : public LibBase {
public:
	void* scratch;
	int   seen;
	App() : seen(0) { scratch = malloc(8); }
	~App() { free(scratch); }
	virtual void onEvent() { seen = seen + 1; }
};
int main() {
	App a;
	print(a.seen);
	return 0;
}
`
	path := filepath.Join(t.TempDir(), "lib.mcc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	// Default: scratch is dead via the delete/free rule; libdata is dead
	// (LibBase is an ordinary class here, and nothing reads libdata).
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "App::scratch") {
		t.Errorf("scratch should be dead by default:\n%s", out.String())
	}

	// -no-delete-rule: scratch becomes live.
	out.Reset()
	if code := run([]string{"-no-delete-rule", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out.String(), "App::scratch") {
		t.Errorf("-no-delete-rule should keep scratch live:\n%s", out.String())
	}

	// -library: LibBase members become unclassifiable and disappear from
	// the report.
	out.Reset()
	if code := run([]string{"-library", "LibBase", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out.String(), "LibBase::libdata") {
		t.Errorf("-library should exclude libdata from the dead report:\n%s", out.String())
	}

	// -sizeof variants accepted; bogus rejected.
	out.Reset()
	if code := run([]string{"-sizeof", "conservative", path}, &out, &errOut); code != 0 {
		t.Fatalf("-sizeof conservative: exit %d", code)
	}
	if code := run([]string{"-sizeof", "sometimes", path}, &out, &errOut); code != 2 {
		t.Fatalf("bogus -sizeof should exit 2")
	}

	// -trust-downcasts accepted.
	out.Reset()
	if code := run([]string{"-trust-downcasts", path}, &out, &errOut); code != 0 {
		t.Fatalf("-trust-downcasts: exit %d", code)
	}
}

func TestCompileErrorExit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.mcc")
	if err := os.WriteFile(path, []byte("int main() { return x; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Errorf("compile error should exit 1, got %d", code)
	}
	if !strings.Contains(errOut.String(), "undeclared identifier") {
		t.Errorf("stderr missing diagnostic:\n%s", errOut.String())
	}
}

func TestMissingInputExit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.mcc")
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Errorf("missing input should exit 1, got %d", code)
	}
	msg := errOut.String()
	if !strings.HasPrefix(msg, "deadmem: ") || strings.Count(strings.TrimRight(msg, "\n"), "\n") != 0 {
		t.Errorf("want a one-line deadmem diagnostic, got:\n%s", msg)
	}
	if strings.Contains(msg, "goroutine") {
		t.Errorf("diagnostic must not include a Go stack trace:\n%s", msg)
	}
}

func TestTimeoutFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ok.mcc")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	// A generous timeout must not perturb a normal run.
	var out, errOut strings.Builder
	if code := run([]string{"-timeout", "1m", path}, &out, &errOut); code != 0 {
		t.Fatalf("run with -timeout 1m failed (%d):\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Gadget::unused") {
		t.Errorf("output missing dead member:\n%s", out.String())
	}
}

// TestServerModeMatchesLocal: -server routes the analysis through
// deadmemd and the stdout must be byte-identical to a local run with the
// same flags.
func TestServerModeMatchesLocal(t *testing.T) {
	path := writeSample(t)
	var local, localErr strings.Builder
	if code := run([]string{"-v", "-classes", path}, &local, &localErr); code != 0 {
		t.Fatalf("local run: exit %d, stderr: %s", code, localErr.String())
	}

	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var remote, remoteErr strings.Builder
	if code := run([]string{"-v", "-classes", "-server", ts.URL, path}, &remote, &remoteErr); code != 0 {
		t.Fatalf("remote run: exit %d, stderr: %s", code, remoteErr.String())
	}
	if remote.String() != local.String() {
		t.Errorf("remote output diverges from local:\n--- remote ---\n%s--- local ---\n%s",
			remote.String(), local.String())
	}
}

// TestServerModeUnreachable: a dead server exhausts retries and exits 1
// with a diagnostic, not a panic or a hang.
func TestServerModeUnreachable(t *testing.T) {
	path := writeSample(t)
	var out, errOut strings.Builder
	code := run([]string{"-server", "http://127.0.0.1:1", "-retries", "2", path}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("failed remote run wrote to stdout: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "giving up after 2 attempts") {
		t.Errorf("stderr should name the retry budget, got: %s", errOut.String())
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"deadmembers/internal/server"
)

func examples(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "mcc", "*.mcc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	sort.Strings(files)
	return files
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestTextFindings(t *testing.T) {
	code, out, errw := runCLI(t, filepath.Join("..", "..", "examples", "mcc", "overwrite.mcc"))
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errw)
	}
	if !strings.Contains(out, "dead-store") || !strings.Contains(out, "timeout") {
		t.Errorf("missing expected finding:\n%s", out)
	}
}

func TestCleanProgramSilent(t *testing.T) {
	code, out, _ := runCLI(t, filepath.Join("..", "..", "examples", "mcc", "clean.mcc"))
	if code != 0 || out != "" {
		t.Errorf("clean program: exit %d, stdout %q", code, out)
	}
}

func TestJSONFormat(t *testing.T) {
	code, out, _ := runCLI(t, "-format", "json", filepath.Join("..", "..", "examples", "mcc", "writeonly.mcc"))
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	var rep struct {
		Findings []struct {
			Check  string `json:"check"`
			Member string `json:"member"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out)
	}
	if len(rep.Findings) != 2 {
		t.Fatalf("findings = %d, want 2 orphaned stores", len(rep.Findings))
	}
	for _, f := range rep.Findings {
		if f.Check != "write-only-member" || f.Member != "Cache::hits" {
			t.Errorf("unexpected finding %+v", f)
		}
	}
}

func TestSARIFFormat(t *testing.T) {
	code, out, _ := runCLI(t, "-format", "sarif", filepath.Join("..", "..", "examples", "mcc", "overwrite.mcc"))
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("stdout is not JSON: %v", err)
	}
	if doc["version"] != "2.1.0" {
		t.Errorf("version = %v", doc["version"])
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Errorf("no args: exit = %d, want 2", code)
	}
	if code, _, errw := runCLI(t, "-format", "xml", "x.mcc"); code != 2 || !strings.Contains(errw, "unknown -format") {
		t.Errorf("bad format: exit = %d, stderr %q", code, errw)
	}
	if code, _, _ := runCLI(t, "-callgraph", "magic", "x.mcc"); code != 2 {
		t.Errorf("bad callgraph: exit = %d, want 2", code)
	}
	if code, _, errw := runCLI(t, "-precision=flow", "x.mcc"); code != 2 || !strings.Contains(errw, "-precision") {
		t.Errorf("-precision: exit = %d, stderr %q", code, errw)
	}
}

func TestMissingFile(t *testing.T) {
	code, _, errw := runCLI(t, filepath.Join(t.TempDir(), "absent.mcc"))
	if code != 1 || !strings.Contains(errw, "deadlint:") {
		t.Errorf("missing file: exit = %d, stderr %q", code, errw)
	}
}

func TestCompileErrorExit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "broken.mcc")
	if err := os.WriteFile(path, []byte("int main() { return undeclared; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errw := runCLI(t, path)
	if code != 1 {
		t.Errorf("compile error: exit = %d, want 1", code)
	}
	if out != "" {
		t.Errorf("compile error should leave stdout empty, got %q", out)
	}
	if errw == "" {
		t.Error("compile error should be diagnosed on stderr")
	}
}

// TestParallelByteIdentical is the acceptance criterion: for every
// example program and every format, stdout is byte-identical between
// -parallel 1 and higher worker counts.
func TestParallelByteIdentical(t *testing.T) {
	for _, file := range examples(t) {
		for _, format := range []string{"text", "json", "sarif"} {
			name := fmt.Sprintf("%s/%s", filepath.Base(file), format)
			t.Run(name, func(t *testing.T) {
				code, seq, _ := runCLI(t, "-format", format, "-parallel", "1", file)
				if code != 0 {
					t.Fatalf("sequential run failed: exit %d", code)
				}
				for _, n := range []string{"2", "8"} {
					codeN, par, _ := runCLI(t, "-format", format, "-parallel", n, file)
					if codeN != 0 {
						t.Fatalf("-parallel %s run failed: exit %d", n, codeN)
					}
					if par != seq {
						t.Fatalf("-parallel %s output differs from sequential:\nseq:\n%s\npar:\n%s", n, seq, par)
					}
				}
			})
		}
	}
}

// TestTimingsOnStderr verifies -timings does not disturb the
// machine-readable stdout stream.
func TestTimingsOnStderr(t *testing.T) {
	file := filepath.Join("..", "..", "examples", "mcc", "overwrite.mcc")
	_, plain, _ := runCLI(t, file)
	code, out, errw := runCLI(t, "-timings", file)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if out != plain {
		t.Errorf("-timings changed stdout:\n%q\nvs\n%q", out, plain)
	}
	for _, stage := range []string{"parse", "sema", "callgraph", "liveness", "lint", "total"} {
		if !strings.Contains(errw, stage) {
			t.Errorf("timings table missing %q:\n%s", stage, errw)
		}
	}
}

func TestBudgetDegradesExitCode(t *testing.T) {
	code, _, errw := runCLI(t, "-budget", "1", filepath.Join("..", "..", "examples", "mcc", "overwrite.mcc"))
	if code != 1 {
		t.Errorf("budget 1: exit = %d, want 1", code)
	}
	if !strings.Contains(errw, "RESULT DEGRADED") {
		t.Errorf("missing degraded banner:\n%s", errw)
	}
}

// TestServerModeMatchesLocal: -server routes the lint through deadmemd
// and the stdout must be byte-identical to a local run, per format.
func TestServerModeMatchesLocal(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "mcc", "overwrite.mcc")
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, format := range []string{"text", "json", "sarif"} {
		localCode, local, localErr := runCLI(t, "-format", format, path)
		if localCode != 0 {
			t.Fatalf("%s local: exit %d, stderr: %s", format, localCode, localErr)
		}
		remoteCode, remote, remoteErr := runCLI(t, "-format", format, "-server", ts.URL, path)
		if remoteCode != 0 {
			t.Fatalf("%s remote: exit %d, stderr: %s", format, remoteCode, remoteErr)
		}
		if remote != local {
			t.Errorf("%s: remote output diverges from local:\n--- remote ---\n%s--- local ---\n%s",
				format, remote, local)
		}
	}
}

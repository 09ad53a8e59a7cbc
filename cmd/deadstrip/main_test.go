package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deadmembers/internal/server"
)

func TestStripsAndVerifies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.mcc")
	src := `
class Cfg {
public:
	int port;
	int legacyTimeout; // dead: written, never read
	Cfg() : port(80), legacyTimeout(30) {}
};
int main() {
	Cfg c;
	print(c.port);
	println();
	return 0;
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "removed member   Cfg::legacyTimeout") {
		t.Errorf("stderr missing removal report:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "verified: identical behaviour") {
		t.Errorf("stderr missing verification:\n%s", errOut.String())
	}
	if strings.Contains(out.String(), "legacyTimeout") {
		t.Errorf("stripped source still contains the member:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "int port;") {
		t.Errorf("stripped source lost the live member:\n%s", out.String())
	}
}

func TestUsageAndErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args should exit 2, got %d", code)
	}
	if code := run([]string{"/nope.mcc"}, &out, &errOut); code != 1 {
		t.Errorf("missing file should exit 1, got %d", code)
	}
	if code := run([]string{"-precision=flow", "/nope.mcc"}, &out, &errOut); code != 2 {
		t.Errorf("-precision should exit 2, got %d", code)
	}
}

// TestServerModeMatchesLocal: -server routes the strip through deadmemd;
// the emitted sources must be byte-identical to a local run (verification
// is local-only, so the local baseline runs with -verify=false).
func TestServerModeMatchesLocal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.mcc")
	src := `
class Cfg {
public:
	int port;
	int legacyTimeout; // dead: written, never read
	Cfg() : port(80), legacyTimeout(30) {}
};
int main() {
	Cfg c;
	print(c.port);
	println();
	return 0;
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var local, localErr strings.Builder
	if code := run([]string{"-verify=false", path}, &local, &localErr); code != 0 {
		t.Fatalf("local run: exit %d, stderr: %s", code, localErr.String())
	}

	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var remote, remoteErr strings.Builder
	if code := run([]string{"-server", ts.URL, path}, &remote, &remoteErr); code != 0 {
		t.Fatalf("remote run: exit %d, stderr: %s", code, remoteErr.String())
	}
	if remote.String() != local.String() {
		t.Errorf("remote output diverges from local:\n--- remote ---\n%s--- local ---\n%s",
			remote.String(), local.String())
	}
}

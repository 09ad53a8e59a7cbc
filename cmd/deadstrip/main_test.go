package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	for _, removed := range []string{"-precision=flow", "-server=http://127.0.0.1:1", "-retries=2"} {
		if code := run([]string{removed, "/nope.mcc"}, &out, &errOut); code != 2 {
			t.Errorf("removed flag %s should exit 2, got %d", removed, code)
		}
	}
}

// TestKeptMembersStableOrder: members written through a call result
// (o.pick()->x = …) stay, each reported on stderr; the report lists them
// in the same (sorted) order on every run.
func TestKeptMembersStableOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "picked.mcc")
	src := `
class O {
public:
	int w;
	int x;
	int y;
	int z;
	O* pick() { return this; }
};
int main() {
	O o;
	o.pick()->z = 1;
	o.pick()->x = 2;
	o.pick()->w = 3;
	o.pick()->y = 4;
	return 0;
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 8; i++ {
		var out, errOut strings.Builder
		if code := run([]string{path}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
		}
		if i == 0 {
			first = errOut.String()
			if n := strings.Count(first, "kept dead member O::"); n != 4 {
				t.Fatalf("want 4 kept dead members, stderr:\n%s", first)
			}
			if !strings.Contains(first, "kept dead member O::w") || strings.Index(first, "O::w") > strings.Index(first, "O::z") {
				t.Fatalf("kept members not in sorted order:\n%s", first)
			}
			continue
		}
		if errOut.String() != first {
			t.Fatalf("run %d stderr differs:\n%s\nfirst run:\n%s", i, errOut.String(), first)
		}
	}
}

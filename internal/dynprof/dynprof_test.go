package dynprof_test

import (
	"testing"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/dynprof"
	"deadmembers/internal/engine"
)

func analyze(t *testing.T, src string) *deadmember.Result {
	t.Helper()
	r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "t.mcc", Text: src})
	if err := r.Err(); err != nil {
		t.Fatalf("compile:\n%v", err)
	}
	return deadmember.Analyze(r.Program, r.Hierarchy, deadmember.Options{CallGraph: callgraph.RTA})
}

func TestProfileAttributesDeadBytes(t *testing.T) {
	res := analyze(t, `
class Rec {
public:
	int live;
	double deadA;  // 8 dead bytes per object
	int deadB;     // 4 dead bytes per object
	Rec() : live(1), deadA(2.0), deadB(3) {}
};
int main() {
	int acc = 0;
	for (int i = 0; i < 5; i++) {
		Rec* r = new Rec();
		acc = acc + r->live;
		delete r;
	}
	return acc;
}
`)
	prof, err := dynprof.Run(res, dynprof.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rec layout: live@0, pad, deadA@8, deadB@16, pad -> 24 bytes; 12 dead.
	l := prof.Ledger
	if l.TotalObjects != 5 {
		t.Fatalf("objects = %d, want 5", l.TotalObjects)
	}
	if l.TotalBytes != 5*24 {
		t.Fatalf("total = %d, want 120", l.TotalBytes)
	}
	if l.DeadBytes != 5*12 {
		t.Fatalf("dead = %d, want 60", l.DeadBytes)
	}
	if l.HighWater != 24 || l.AdjustedHighWater != 12 {
		t.Fatalf("hwm = %d/%d, want 24/12", l.HighWater, l.AdjustedHighWater)
	}
	if prof.Exec.ExitCode != 5 {
		t.Fatalf("exit = %d, want 5", prof.Exec.ExitCode)
	}
}

func TestProfileZeroDeadProgram(t *testing.T) {
	res := analyze(t, `
class P {
public:
	int x;
	P() : x(7) {}
};
int main() {
	P p;
	return p.x;
}
`)
	prof, err := dynprof.Run(res, dynprof.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Ledger.DeadBytes != 0 {
		t.Fatalf("dead bytes = %d, want 0", prof.Ledger.DeadBytes)
	}
	if prof.Ledger.HighWater != prof.Ledger.AdjustedHighWater {
		t.Fatal("HWM must equal adjusted HWM when nothing is dead")
	}
}

func TestProfilePropagatesRuntimeErrors(t *testing.T) {
	res := analyze(t, `
int main() { int z = 0; return 5 / z; }
`)
	if _, err := dynprof.Run(res, dynprof.Options{}); err == nil {
		t.Fatal("runtime error must propagate out of Run")
	}
}

func TestProfileRespectsMaxSteps(t *testing.T) {
	res := analyze(t, `
int main() {
	int s = 0;
	for (int i = 0; i < 1000000; i++) { s = s + 1; }
	return 0;
}
`)
	if _, err := dynprof.Run(res, dynprof.Options{MaxSteps: 100}); err == nil {
		t.Fatal("step limit must propagate")
	}
}

// Stripdemo: applying the optimization the paper proposes. The program
// below is analyzed, its dead members are removed (with unreachable
// functions), the original and stripped versions are both executed to
// prove behaviour is preserved, and the object-space savings are measured.
package main

import (
	"context"
	"fmt"
	"log"

	"deadmembers"
)

const program = `
class Particle {
public:
	double x;
	double y;
	double vx;
	double vy;
	double legacyMass;   // dead: the force model stopped using it
	int    debugId;      // dead: written, read only by dumpState()
	Particle(double ax, double ay) : x(ax), y(ay), vx(0.0), vy(0.0),
		legacyMass(1.0), debugId(0) {}
	void step() {
		vy = vy - 1.0;
		x = x + vx;
		y = y + vy;
		debugId = 7; // write-only in reachable code
	}
	int dumpState() { return debugId; }  // never called
	double height() { return y; }
};
int main() {
	double total = 0.0;
	for (int i = 0; i < 64; i++) {
		Particle* p = new Particle((double)i, 100.0);
		for (int s = 0; s < 10; s++) { p->step(); }
		total = total + p->height();
		delete p;
	}
	print("sum=");
	print(total);
	println();
	return 0;
}
`

func main() {
	ctx := context.Background()
	comp, err := deadmembers.Compile(ctx, deadmembers.CompileConfig{},
		deadmembers.Source{Name: "particles.mcc", Text: program})
	if err != nil {
		log.Fatal(err)
	}

	// Profile before stripping: Strip rewrites the compilation in place.
	before, err := comp.Profile(ctx, deadmembers.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before: %d bytes of object space, %d dead (%.1f%%)\n",
		before.Ledger.TotalBytes, before.Ledger.DeadBytes, before.Ledger.DeadPercent())

	out, err := comp.Strip(ctx, deadmembers.Options{}, deadmembers.StripOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("removed members:   %v\n", out.RemovedMembers)
	fmt.Printf("removed functions: %v\n", out.RemovedFunctions)

	stripped, err := deadmembers.Compile(ctx, deadmembers.CompileConfig{}, out.Sources...)
	if err != nil {
		log.Fatal(err)
	}
	after, err := stripped.Profile(ctx, deadmembers.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after:  %d bytes of object space, %d dead (%.1f%%)\n",
		after.Ledger.TotalBytes, after.Ledger.DeadBytes, after.Ledger.DeadPercent())

	if before.Exec.Output == after.Exec.Output && before.Exec.ExitCode == after.Exec.ExitCode {
		fmt.Printf("verified: identical output %q, saved %d bytes (%.1f%%)\n",
			before.Exec.Output,
			before.Ledger.TotalBytes-after.Ledger.TotalBytes,
			100*float64(before.Ledger.TotalBytes-after.Ledger.TotalBytes)/float64(before.Ledger.TotalBytes))
	} else {
		log.Fatal("behaviour changed — this would be a bug")
	}
}

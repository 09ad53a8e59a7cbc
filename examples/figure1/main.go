// Figure 1: the example program from the paper, with the classification
// the algorithm produces for every data member (Section 3.1 of the paper
// walks through exactly this run).
package main

import (
	"context"
	"fmt"
	"log"

	"deadmembers"
)

// program is Figure 1 of Sweeney & Tip (PLDI 1998), transliterated to
// MC++ (references replaced by pointers). The comments give the paper's
// semantic classification; note that the conservative algorithm marks
// B::mb1, C::mc1 (accessed from code that is dynamically unreachable but
// statically live under the call graph), and B::mb3 (read, but the read
// does not affect the result) as live — the paper discusses all three.
const program = `
class N {
public:
	int mn1; /* live: accessed and observable */
	int mn2; /* dead: not accessed */
};
class A {
public:
	virtual int f() { return ma1; }
	int ma1; /* live: accessed and observable */
	int ma2; /* dead: not accessed */
	int ma3; /* dead: accessed but not observable */
};
class B : public A {
public:
	virtual int f() { return mb1; }
	int mb1; /* dead: accessed from unreachable code */
	N   mb2; /* live: accessed and observable */
	int mb3; /* dead: accessed, but not observable */
	int mb4; /* live: accessed and observable */
};
class C : public A {
public:
	virtual int f() { return mc1; }
	int mc1; /* dead: accessed from unreachable code */
};
int foo(int* x) { return (*x) + 1; }
int main() {
	A a;
	B b;
	C c;
	A* ap;
	a.ma3 = b.mb3 + 1;
	int i = 10;
	if (i < 20) { ap = &a; } else { ap = &b; }
	return ap->f() + b.mb2.mn1 + foo(&b.mb4);
}
`

func main() {
	ctx := context.Background()
	comp, err := deadmembers.Compile(ctx, deadmembers.CompileConfig{},
		deadmembers.Source{Name: "figure1.mcc", Text: program})
	if err != nil {
		log.Fatal(err)
	}
	result, _, err := comp.Analyze(ctx, deadmembers.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("classification of every data member (paper Section 3.1):")
	for _, cls := range result.Program.Classes {
		for _, f := range cls.Fields {
			mark := result.MarkOf(f)
			state := "DEAD"
			detail := ""
			if mark.Live {
				state = "live"
				detail = " (" + mark.Reason.String() + ")"
			}
			fmt.Printf("  %-8s %s%s\n", f.QualifiedName(), state, detail)
		}
	}

	s := result.Stats()
	fmt.Printf("\n%d of %d members dead (%.1f%%)\n", s.DeadMembers, s.Members, s.DeadPercent())
	fmt.Println("\nthe paper's algorithm finds dead: N::mn2, A::ma2, A::ma3;")
	fmt.Println("B::mb1/C::mc1/B::mb3 are conservatively live, as §3.1 explains.")

	// The program still runs — removing the dead members could not change
	// this output.
	exec, err := comp.Run(ctx, deadmembers.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprogram exit code: %d\n", exec.ExitCode)
}

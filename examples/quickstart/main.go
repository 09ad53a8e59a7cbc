// Quickstart: analyze an MC++ program for dead data members and profile
// how much object space they occupy at run time.
package main

import (
	"context"
	"fmt"
	"log"

	"deadmembers"
)

const program = `
class Point {
public:
	int x;
	int y;
	int cachedNorm;   // written in the constructor, never read: dead
	Point(int ax, int ay) : x(ax), y(ay), cachedNorm(ax*ax + ay*ay) {}
	int manhattan() { return x + y; }
};

int main() {
	int total = 0;
	for (int i = 0; i < 1000; i++) {
		Point* p = new Point(i, i + 1);
		total = total + p->manhattan();
		delete p;
	}
	print("total=");
	print(total);
	println();
	return 0;
}
`

func main() {
	// Compile once; the analysis and the profile share the compilation.
	ctx := context.Background()
	comp, err := deadmembers.Compile(ctx, deadmembers.CompileConfig{},
		deadmembers.Source{Name: "quickstart.mcc", Text: program})
	if err != nil {
		log.Fatal(err)
	}

	// Static analysis: which members are guaranteed dead?
	result, _, err := comp.Analyze(ctx, deadmembers.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dead data members:")
	for _, f := range result.DeadMembers() {
		fmt.Printf("  %s (%s)\n", f.QualifiedName(), f.Type)
	}
	s := result.Stats()
	fmt.Printf("=> %d of %d members dead (%.1f%%)\n\n", s.DeadMembers, s.Members, s.DeadPercent())

	// Dynamic measurement: how many object bytes do they waste?
	profile, err := comp.Profile(ctx, deadmembers.Options{})
	if err != nil {
		log.Fatal(err)
	}
	l := profile.Ledger
	fmt.Printf("program output:        %s", profile.Exec.Output)
	fmt.Printf("objects allocated:     %d\n", l.TotalObjects)
	fmt.Printf("object space:          %d bytes\n", l.TotalBytes)
	fmt.Printf("dead member space:     %d bytes (%.1f%% of object space)\n", l.DeadBytes, l.DeadPercent())
	fmt.Printf("high water mark:       %d -> %d bytes without dead members\n", l.HighWater, l.AdjustedHighWater)
}

// Librarytrim: the paper's first motivating scenario — "when an
// application uses a class library, it typically uses only part of the
// library's functionality. Certain members may be accessed only from the
// unused parts."
//
// The program below links a small generic container library into an
// application that only ever appends and iterates. The library's reverse
// iteration, bounds bookkeeping, and freezing support are never called,
// so the members that only those features read are dead in this
// application — exactly what the analysis reports.
package main

import (
	"context"
	"fmt"
	"log"

	"deadmembers"
)

const program = `
// ---- the collection library (fully available for analysis) ----

class Vec {
public:
	int  items[64];
	int  count;
	int  revCursor;   // used only by reverse iteration: dead here
	int  loBound;     // used only by checked access: dead here
	int  hiBound;     // used only by checked access: dead here
	bool frozen;      // used only by freeze(): dead here
	int  version;     // live: the iterator checks it

	Vec() : count(0), revCursor(0), loBound(0), hiBound(63), frozen(false), version(0) {}

	void append(int v) {
		items[count] = v;
		count = count + 1;
		version = version + 1;
	}

	// --- unused library functionality below ---
	int prevFromEnd() {
		revCursor = revCursor - 1;
		return items[revCursor];
	}
	int atChecked(int i) {
		if (i < loBound || i > hiBound) { abort(); }
		return items[i];
	}
	void freeze() {
		if (frozen) { abort(); }
		frozen = true;
	}
};

class VecIter {
public:
	Vec* vec;
	int  pos;
	int  expectVersion;
	VecIter(Vec* v) : vec(v), pos(0), expectVersion(v->version) {}
	bool hasNext() { return pos < vec->count; }
	int next() {
		if (expectVersion != vec->version) { abort(); }
		int v = vec->items[pos];
		pos = pos + 1;
		return v;
	}
};

// ---- the application: append + iterate only ----

int main() {
	Vec v;
	for (int i = 1; i <= 10; i++) { v.append(i * i); }
	int sum = 0;
	VecIter it(&v);
	while (it.hasNext()) { sum = sum + it.next(); }
	print("sum=");
	print(sum);
	println();
	return 0;
}
`

func main() {
	ctx := context.Background()
	comp, err := deadmembers.Compile(ctx, deadmembers.CompileConfig{},
		deadmembers.Source{Name: "librarytrim.mcc", Text: program})
	if err != nil {
		log.Fatal(err)
	}
	result, _, err := comp.Analyze(ctx, deadmembers.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("dead members arising from unused library functionality:")
	for _, f := range result.DeadMembers() {
		fmt.Printf("  %s\n", f.QualifiedName())
	}
	s := result.Stats()
	fmt.Printf("=> %d of %d members (%.1f%%) — the paper found up to 27.3%% in\n",
		s.DeadMembers, s.Members, s.DeadPercent())
	fmt.Println("   library-based benchmarks (taldict, simulate, hotwire)")

	// How much object space would trimming save at run time?
	profile, err := comp.Profile(ctx, deadmembers.Options{})
	if err != nil {
		log.Fatal(err)
	}
	l := profile.Ledger
	fmt.Printf("\nprogram output: %s", profile.Exec.Output)
	fmt.Printf("object space %d bytes, %d dead (%.1f%%)\n", l.TotalBytes, l.DeadBytes, l.DeadPercent())
}

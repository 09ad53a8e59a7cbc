// Evolution: the paper's third motivating scenario — "programmers may
// lose track of which members are used, due to the growing complexity of
// an application and its class hierarchy as the application changes over
// time."
//
// The employee-record application below has been through three
// "rewrites": caching fields from a removed optimization, a legacy
// payroll path that nothing calls anymore, and a debugging field that is
// only ever written. The example also shows how call-graph precision
// changes what the analysis can prove (the paper's Section 3.1
// discussion): the legacy path's members are dead under RTA/CHA but kept
// alive by the ALL baseline.
package main

import (
	"context"
	"fmt"
	"log"

	"deadmembers"
)

const program = `
class Money {
public:
	int cents;
	Money(int c) : cents(c) {}
	int dollars() { return cents / 100; }
};

class Employee {
public:
	int   id;
	int   salaryCents;
	int   vacationDays;
	int   cachedTax;      // v1 optimization, invalidated each raise, never read since v2
	int   auditFlags;     // only written by the audit hook
	Money legacyBonus;    // read only by the v1 payroll path, which nothing calls
	int   perfScore;

	Employee(int i, int s) : id(i), salaryCents(s), vacationDays(25),
		cachedTax(0), auditFlags(0), legacyBonus(0), perfScore(50) {}

	void raise(int deltaCents) {
		salaryCents = salaryCents + deltaCents;
		cachedTax = 0;          // stale invalidation: write-only
		auditFlags = 1;         // set for an audit tool that was retired
	}

	int payV1() {               // legacy: no caller remains
		return salaryCents + legacyBonus.cents;
	}

	int pay() { return salaryCents; }
};

int main() {
	Employee* staff[8];
	for (int i = 0; i < 8; i++) { staff[i] = new Employee(i, 500000 + i * 10000); }
	staff[3]->raise(25000);
	int payroll = 0;
	for (int i = 0; i < 8; i++) {
		payroll = payroll + staff[i]->pay() + staff[i]->vacationDays + staff[i]->perfScore;
	}
	print("payroll=");
	print(payroll);
	println();
	for (int i = 0; i < 8; i++) { delete staff[i]; }
	return 0;
}
`

func main() {
	ctx := context.Background()
	comp, err := deadmembers.Compile(ctx, deadmembers.CompileConfig{},
		deadmembers.Source{Name: "evolution.mcc", Text: program})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dead members under each call-graph precision (paper §3.1):")
	for _, mode := range []struct {
		name string
		mode deadmembers.CallGraphMode
	}{
		{"ALL (every function reachable)", deadmembers.CallGraphALL},
		{"CHA (class hierarchy analysis)", deadmembers.CallGraphCHA},
		{"RTA (rapid type analysis, the paper's setting)", deadmembers.CallGraphRTA},
	} {
		result, _, err := comp.Analyze(ctx, deadmembers.Options{CallGraph: mode.mode})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n", mode.name)
		for _, f := range result.DeadMembers() {
			fmt.Printf("  %s\n", f.QualifiedName())
		}
		s := result.Stats()
		fmt.Printf("  -> %d of %d (%.1f%%)\n", s.DeadMembers, s.Members, s.DeadPercent())
	}

	fmt.Println("\nauditFlags and cachedTax are written in raise() but never read:")
	fmt.Println("write-only members are the paper's key insight — initialization and")
	fmt.Println("maintenance writes must not imply liveness. (Even Employee::id turns")
	fmt.Println("out to be dead: nothing ever reads it back.)")
}

package lint_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/lint"
)

// TestSARIFShape validates the output against the SARIF 2.1.0 schema
// shape: version/$schema at the top, one run with tool.driver.name and
// the rule catalog, and results carrying ruleId, level, message, and a
// physicalLocation with artifactLocation + region.
func TestSARIFShape(t *testing.T) {
	ar := analyzeFixture(t, "plain.mcc", deadmember.Options{CallGraph: callgraph.RTA})
	r := lint.Run(ar, lint.Options{})
	if len(r.Findings) == 0 {
		t.Fatal("fixture should produce findings")
	}
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, r); err != nil {
		t.Fatal(err)
	}

	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if doc["version"] != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", doc["version"])
	}
	schema, _ := doc["$schema"].(string)
	if schema == "" {
		t.Error("$schema missing")
	}

	runs, ok := doc["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v, want exactly one", doc["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "deadlint" {
		t.Errorf("driver name = %v", driver["name"])
	}
	rules, ok := driver["rules"].([]any)
	if !ok || len(rules) != 2 {
		t.Fatalf("rules = %v, want the 2-rule catalog", driver["rules"])
	}
	ruleIDs := map[string]bool{}
	for _, r := range rules {
		rm := r.(map[string]any)
		ruleIDs[rm["id"].(string)] = true
		if rm["shortDescription"].(map[string]any)["text"] == "" {
			t.Error("rule missing shortDescription.text")
		}
	}
	if !ruleIDs[lint.CheckDeadStore] || !ruleIDs[lint.CheckWriteOnly] {
		t.Errorf("rule catalog incomplete: %v", ruleIDs)
	}

	results, ok := run["results"].([]any)
	if !ok || len(results) != len(r.Findings) {
		t.Fatalf("results = %d, want %d", len(results), len(r.Findings))
	}
	for i, res := range results {
		rm := res.(map[string]any)
		if !ruleIDs[rm["ruleId"].(string)] {
			t.Errorf("result %d has unknown ruleId %v", i, rm["ruleId"])
		}
		if rm["level"] != "warning" {
			t.Errorf("result %d level = %v", i, rm["level"])
		}
		if rm["message"].(map[string]any)["text"] == "" {
			t.Errorf("result %d missing message text", i)
		}
		locs := rm["locations"].([]any)
		if len(locs) != 1 {
			t.Fatalf("result %d locations = %d", i, len(locs))
		}
		phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
		if phys["artifactLocation"].(map[string]any)["uri"] == "" {
			t.Errorf("result %d missing artifactLocation.uri", i)
		}
		region := phys["region"].(map[string]any)
		if region["startLine"].(float64) <= 0 || region["startColumn"].(float64) <= 0 {
			t.Errorf("result %d region not positive: %v", i, region)
		}
	}
}

// TestTextAndJSONFormats sanity-checks the other two writers.
func TestTextAndJSONFormats(t *testing.T) {
	ar := analyzeFixture(t, "plain.mcc", deadmember.Options{CallGraph: callgraph.RTA})
	r := lint.Run(ar, lint.Options{})

	var text bytes.Buffer
	if err := lint.WriteText(&text, r); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(text.Bytes(), []byte("\n"))
	if lines != len(r.Findings) {
		t.Errorf("text lines = %d, want %d", lines, len(r.Findings))
	}
	if !bytes.Contains(text.Bytes(), []byte("plain.mcc:")) {
		t.Error("text output missing file positions")
	}

	var js bytes.Buffer
	if err := lint.WriteJSON(&js, r); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Findings []lint.Finding `json:"findings"`
		Funcs    int            `json:"funcs"`
		Degraded bool           `json:"degraded"`
	}
	if err := json.Unmarshal(js.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != len(r.Findings) || rep.Funcs != r.Funcs || rep.Degraded {
		t.Errorf("JSON round-trip mismatch: %+v", rep)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deadmembers/internal/api"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/lint"
	"deadmembers/internal/strip"
	"deadmembers/internal/textreport"
)

const sample = `
class Gadget {
public:
	int used;
	int unused;
	Gadget() : used(1), unused(2) {}
};
int main() {
	Gadget g;
	return g.used;
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, contentType, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// TestAnalyzeMatchesCLIRenderer: the /v1/analyze body must be exactly
// what cmd/deadmem prints to stdout for the same input — both sides go
// through internal/textreport, and this pins the transport to it.
func TestAnalyzeMatchesCLIRenderer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := post(t, ts.URL+"/v1/analyze?file=sample.mcc", "text/x-mcc", sample)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body: %s", resp.StatusCode, body)
	}

	comp := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "sample.mcc", Text: sample})
	if err := comp.Err(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := textreport.Write(&want, comp.Analyze(deadmember.Options{}), textreport.Options{}); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Errorf("server body diverges from CLI renderer:\n--- server ---\n%s--- cli ---\n%s", body, want.String())
	}
	if !strings.Contains(body, "Gadget::unused") {
		t.Errorf("missing dead member in body:\n%s", body)
	}
}

// TestAnalyzeJSONBundle: the JSON transport accepts multi-file bundles
// with the full option set.
func TestAnalyzeJSONBundle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := api.Request{
		Sources: []api.Source{
			{Name: "a.mcc", Text: "class A { public: int x; A() : x(1) {} };\n"},
			{Name: "b.mcc", Text: "int main() { A a; return a.x; }\n"},
		},
		Options: api.Options{CallGraph: "cha"},
		Classes: true,
	}
	body, _ := json.Marshal(req)
	resp, got := post(t, ts.URL+"/v1/analyze", "application/json", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body: %s", resp.StatusCode, got)
	}
	if !strings.Contains(got, "per-class breakdown:") {
		t.Errorf("classes section missing:\n%s", got)
	}
}

// chainSample has a two-member-deep store the length-one dead-store
// check does not report (a known false negative) next to a write-only
// member it does.
const chainSample = `
class Inner {
public:
	int val;
	int pad;
	Inner() : val(0), pad(0) {}
};
class Outer {
public:
	Inner in;
	int tag;
	Outer() : tag(0) {}
};
int main() {
	Outer o;
	o.in.val = 1;
	o.in.val = 2;
	print(o.in.val + o.tag);
	return 0;
}
`

// TestLintPrecisionMatchesCLIRenderer: the /v1/lint body must be
// byte-identical to what deadlint prints for the same input.
func TestLintPrecisionMatchesCLIRenderer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	comp := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "chain.mcc", Text: chainSample})
	if err := comp.Err(); err != nil {
		t.Fatal(err)
	}
	res := comp.Lint(deadmember.Options{}, lint.Options{})
	if len(res.Findings) == 0 {
		t.Fatal("fixture produced no findings; the comparison would be vacuous")
	}
	var want bytes.Buffer
	if err := lint.WriteText(&want, res); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/lint?file=chain.mcc", "text/x-mcc", chainSample)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body: %s", resp.StatusCode, body)
	}
	if body != want.String() {
		t.Errorf("body diverges from CLI writer:\n--- server ---\n%s--- cli ---\n%s", body, want.String())
	}
}

// TestLintLibraryListsDoNotShareCache: two library lists that print
// alike, ["Cache X"] and ["Cache","X"], must not share a lint result on
// one server. The second request gets what a fresh server answers.
func TestLintLibraryListsDoNotShareCache(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("..", "..", "examples", "mcc", "writeonly.mcc"))
	if err != nil {
		t.Fatal(err)
	}
	lintBody := func(libs ...string) string {
		b, err := json.Marshal(api.Request{
			Sources: []api.Source{{Name: "writeonly.mcc", Text: string(text)}},
			Options: api.Options{Library: libs},
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	lintOn := func(ts *httptest.Server, libs ...string) string {
		resp, body := post(t, ts.URL+"/v1/lint", "application/json", lintBody(libs...))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("library %q: status %d, body: %s", libs, resp.StatusCode, body)
		}
		return body
	}

	_, fresh := newTestServer(t, Config{Workers: 1})
	want := lintOn(fresh, "Cache", "X")

	_, shared := newTestServer(t, Config{Workers: 1})
	if first := lintOn(shared, "Cache X"); first == want {
		t.Fatalf("fixture does not tell the lists apart: both answer\n%s", first)
	}
	if got := lintOn(shared, "Cache", "X"); got != want {
		t.Errorf("second list served the first list's result:\n--- got ---\n%s--- fresh server ---\n%s", got, want)
	}
}

// TestLintFormats: each format matches the shared writer and carries the
// right content type.
func TestLintFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	comp := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "sample.mcc", Text: sample})
	res := comp.Lint(deadmember.Options{}, lint.Options{})

	for _, tc := range []struct {
		format      string
		contentType string
		write       func(io.Writer, *lint.Result) error
	}{
		{"text", "text/plain; charset=utf-8", lint.WriteText},
		{"json", "application/json", lint.WriteJSON},
		{"sarif", "application/json", lint.WriteSARIF},
	} {
		resp, body := post(t, ts.URL+"/v1/lint?file=sample.mcc&format="+tc.format, "text/x-mcc", sample)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body: %s", tc.format, resp.StatusCode, body)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.contentType {
			t.Errorf("%s: Content-Type = %q, want %q", tc.format, got, tc.contentType)
		}
		var want bytes.Buffer
		if err := tc.write(&want, res); err != nil {
			t.Fatal(err)
		}
		if body != want.String() {
			t.Errorf("%s: body diverges from CLI writer:\n--- server ---\n%s--- cli ---\n%s", tc.format, body, want.String())
		}
	}
}

// TestStripEndpoint: the stripped sources match the shared writer, and
// the transform never touches the shared session cache.
func TestStripEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, body := post(t, ts.URL+"/v1/strip?file=sample.mcc", "text/x-mcc", sample)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body: %s", resp.StatusCode, body)
	}

	comp := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "sample.mcc", Text: sample})
	out := comp.Strip(deadmember.Options{}, strip.Options{})
	var want bytes.Buffer
	if err := strip.WriteSources(&want, out.Sources); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Errorf("strip body diverges:\n--- server ---\n%s--- cli ---\n%s", body, want.String())
	}
	if strings.Contains(body, "unused") {
		t.Errorf("dead member survived the strip:\n%s", body)
	}
	if st := s.Session().Stats(); st.Compiles != 0 || st.Entries != 0 {
		t.Errorf("strip polluted the shared session cache: %+v", st)
	}
}

func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxRequestBytes: 128})

	get, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET analyze: status %d, want 405", get.StatusCode)
	}

	for _, tc := range []struct {
		name, url, contentType, body string
		want                         int
	}{
		{"bad json", "/v1/analyze", "application/json", "{not json", http.StatusBadRequest},
		{"no sources", "/v1/analyze", "application/json", `{"sources":[]}`, http.StatusBadRequest},
		{"unknown option", "/v1/analyze?callgraph=psychic", "text/x-mcc", "int main() { return 0; }", http.StatusBadRequest},
		{"unknown format", "/v1/lint?format=yaml", "text/x-mcc", "int main() { return 0; }", http.StatusBadRequest},
		{"comma in library name", "/v1/analyze", "application/json",
			`{"sources":[{"name":"a.mcc","text":"int main() { return 0; }"}],"options":{"library":["A,B"]}}`, http.StatusBadRequest},
		{"precision in JSON body", "/v1/lint", "application/json",
			`{"sources":[{"name":"a.mcc","text":"int main() { return 0; }"}],"precision":"flow"}`, http.StatusBadRequest},
		{"precision query parameter", "/v1/lint?precision=heap", "text/x-mcc", "int main() { return 0; }", http.StatusBadRequest},
		{"compile error", "/v1/analyze?file=bad.mcc", "text/x-mcc", "class {", http.StatusUnprocessableEntity},
		{"oversized body", "/v1/analyze", "text/x-mcc", strings.Repeat("x", 4096), http.StatusRequestEntityTooLarge},
	} {
		resp, body := post(t, ts.URL+tc.url, tc.contentType, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (body: %s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
}

// TestRequestDeadline: an already-expired per-request deadline surfaces
// as 504, threaded through the engine's cancellation points.
func TestRequestDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: time.Nanosecond})
	resp, body := post(t, ts.URL+"/v1/analyze?file=sample.mcc", "text/x-mcc", sample)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504 (body: %s)", resp.StatusCode, body)
	}
}

func TestProbesAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, resp.StatusCode)
		}
	}

	s.StartDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status %d, want 503", resp.StatusCode)
	}
	resp2, body := post(t, ts.URL+"/v1/analyze?file=s.mcc", "text/x-mcc", sample)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("analyze while draining: status %d, want 503 (body: %s)", resp2.StatusCode, body)
	}
	// Liveness stays green while draining: the process is healthy, just
	// not accepting work.
	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: status %d, want 200", resp3.StatusCode)
	}
}

// TestMetricsExposition: the endpoint serves every documented series in
// Prometheus text format after traffic has flowed.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	post(t, ts.URL+"/v1/analyze?file=s.mcc", "text/x-mcc", sample)
	post(t, ts.URL+"/v1/analyze?file=s.mcc", "text/x-mcc", sample) // cache hit
	post(t, ts.URL+"/v1/lint?file=s.mcc", "text/x-mcc", sample)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	for _, want := range []string{
		`deadmemd_requests_total{endpoint="/v1/analyze",code="200"} 2`,
		`deadmemd_requests_total{endpoint="/v1/lint",code="200"} 1`,
		`deadmemd_request_duration_seconds_count{endpoint="/v1/analyze"} 2`,
		`deadmemd_request_duration_seconds_bucket{endpoint="/v1/analyze",le="+Inf"} 2`,
		"deadmemd_cache_hits_total 2",
		"deadmemd_cache_compiles_total 1",
		"deadmemd_cache_evictions_total 0",
		"deadmemd_cache_entries 1",
		"deadmemd_inflight 0",
		"deadmemd_queued 0",
		"deadmemd_degraded_total 0",
		"deadmemd_rejected_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestHandlerPanicContained: a panic below a handler becomes a 500, not a
// dead connection, and the server keeps serving.
func TestHandlerPanicContained(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Mount a handler that panics outside the engine's own containment
	// (simulating a bug in the transport layer itself).
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.endpoint("/v1/analyze", func(context.Context, *bundle) (*handlerResult, *httpError) {
		panic("handler bug")
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, body := post(t, ts.URL+"/v1/analyze?file=s.mcc", "text/x-mcc", sample)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500 (body: %s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "handler bug") {
		t.Errorf("panic message lost: %s", body)
	}
}

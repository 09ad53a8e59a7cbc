package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"deadmembers/internal/api"
	"deadmembers/internal/engine"
)

// TestWarmRestartServesFromDisk is the warm-restart acceptance criterion:
// a response persisted by one server process is served byte-identically
// by a fresh process over the same directory — persist-hit metric
// increments, zero frontend compiles.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newTestServer(t, Config{Workers: 1, PersistDir: dir})
	resp1, body1 := post(t, ts1.URL+"/v1/analyze?file=sample.mcc", "text/x-mcc", sample)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d, body: %s", resp1.StatusCode, body1)
	}
	if st := s1.Store().Stats(); st.Writes != 1 || st.Misses != 1 {
		t.Fatalf("first run persist stats = %+v, want 1 miss + 1 write", st)
	}
	ts1.Close() // process one "dies"; the record is already fsynced

	s2, ts2 := newTestServer(t, Config{Workers: 1, PersistDir: dir})
	resp2, body2 := post(t, ts2.URL+"/v1/analyze?file=sample.mcc", "text/x-mcc", sample)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restarted run: status %d, body: %s", resp2.StatusCode, body2)
	}
	if body2 != body1 {
		t.Errorf("restarted body diverges:\n--- before ---\n%s--- after ---\n%s", body1, body2)
	}
	if got := resp2.Header.Get("X-Deadmemd-Cache"); got != "persist" {
		t.Errorf("X-Deadmemd-Cache = %q, want \"persist\"", got)
	}
	if st := s2.Session().Stats(); st.Compiles != 0 {
		t.Errorf("restarted server compiled %d times; the artifact store should have absorbed the request", st.Compiles)
	}
	if st := s2.Store().Stats(); st.Hits != 1 {
		t.Errorf("restarted persist stats = %+v, want exactly 1 hit", st)
	}

	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	b, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"deadmemd_persist_hits_total 1",
		"deadmemd_cache_compiles_total 0",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics missing %q:\n%s", want, b)
		}
	}
}

// TestArtifactKeyStable pins one artifact key, so records a persist dir
// already holds stay valid. The key joins library names with ',', which
// is why a library name containing ',' is rejected (TestErrorMapping)
// instead of the key format changing.
func TestArtifactKeyStable(t *testing.T) {
	b, herr := bundleFromAPI(&api.Request{
		Sources: []api.Source{{Name: "sample.mcc", Text: sample}},
		Options: api.Options{Library: []string{"A", "B"}},
	})
	if herr != nil {
		t.Fatal(herr)
	}
	const want = "b1ac9439856041e271fdc6be45b67eed4400ad01a0d790d139e1e9155db39f06"
	if got := artifactKey("/v1/analyze", b); got != want {
		t.Errorf("artifactKey = %s, want %s: existing persist dirs would go cold", got, want)
	}
}

// TestDegradedResponsesNotPersisted: a panic-salvaged response carries
// the degraded marker and must never enter the artifact store — a
// restart should recompute it at full fidelity, not replay the salvage.
func TestDegradedResponsesNotPersisted(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, PersistDir: dir})
	s.sess = engine.NewBoundedSession(engine.Config{
		Workers:    1,
		ParseFault: func(string) { panic("injected parse fault") },
	}, engine.Limits{})

	resp, body := post(t, ts.URL+"/v1/analyze?file=sample.mcc", "text/x-mcc", sample)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Deadmemd-Degraded") != "true" {
		t.Fatal("response not marked degraded; test lost its premise")
	}
	if st := s.Store().Stats(); st.Writes != 0 || st.Entries != 0 {
		t.Errorf("degraded artifact persisted: %+v", st)
	}
}

// TestRetryAfterOverride: a configured -retry-after wins over the
// adaptive estimate, rounded up to whole seconds.
func TestRetryAfterOverride(t *testing.T) {
	s, err := New(Config{Workers: 1, RetryAfter: 2500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.retryAfterSeconds(); got != 3 {
		t.Errorf("retryAfterSeconds = %d, want 3 (ceil of 2.5s)", got)
	}
}

// TestRetryAfterAdapts: with no override the hint tracks the recent
// average service time scaled by the backlog, clamped to [1s, 60s].
func TestRetryAfterAdapts(t *testing.T) {
	s, err := New(Config{Workers: 1, MaxInflight: 2, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("no samples: retryAfterSeconds = %d, want fallback 1", got)
	}

	prime := func(secs float64) {
		s.met.mu.Lock()
		s.met.ewmaSecs, s.met.ewmaInit = secs, true
		s.met.mu.Unlock()
	}
	prime(10) // empty queue: 10s * (0+1)/2 slots = 5s
	if got := s.retryAfterSeconds(); got != 5 {
		t.Errorf("retryAfterSeconds = %d, want 5", got)
	}
	prime(1e6)
	if got := s.retryAfterSeconds(); got != 60 {
		t.Errorf("retryAfterSeconds = %d, want clamp 60", got)
	}
	prime(0.001)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("retryAfterSeconds = %d, want floor 1", got)
	}
}

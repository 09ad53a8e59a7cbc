package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deadmembers/internal/callgraph"
	"deadmembers/internal/deadmember"
	"deadmembers/internal/engine"
	"deadmembers/internal/faultinject"
	"deadmembers/internal/lint"
	"deadmembers/internal/persist"
	"deadmembers/internal/textreport"
)

// TestChaosSoak is the crash-safety acceptance test: a server behind a
// seeded fault injector (faulty disk under the artifact store,
// latency/503/drop on the /v1 endpoints) is hammered by retrying POST
// loops (postUntilAnswered), killed abruptly
// mid-soak — with one on-disk record deliberately corrupted while it is
// down — and restarted on the same address over the same persist
// directory. The invariants:
//
//   - every successful response is byte-identical to the renderer's
//     ground truth (failures are allowed; wrong answers are not);
//   - corrupt bytes are never served (quarantined and recomputed);
//   - the restarted server recovers its hit rate from disk.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; run without -short")
	}
	dir := t.TempDir()

	// Ground truth for each bundle, rendered through the same writers
	// the server uses.
	type job struct {
		call string // "analyze" | "lint"
		body []byte
		want string
	}
	var jobs []job
	for i := 0; i < 4; i++ {
		text := fmt.Sprintf(`class C%d {
public:
	int used;
	int unused;
	C%d() : used(1), unused(2) {}
};
int main() { C%d c; return c.used; }
`, i, i, i)
		name := fmt.Sprintf("c%d.mcc", i)
		comp := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: name, Text: text})
		if err := comp.Err(); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(wireRequest{Sources: []wireSource{{Name: name, Text: text}}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := comp.AnalyzeContext(context.Background(), deadmember.Options{CallGraph: callgraph.RTA})
		if err != nil {
			t.Fatal(err)
		}
		var abuf bytes.Buffer
		if err := textreport.Write(&abuf, res, textreport.Options{}); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{"analyze", body, abuf.String()})
		lres, _, err := comp.LintContext(context.Background(), deadmember.Options{CallGraph: callgraph.RTA}, lint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var lbuf bytes.Buffer
		if err := lint.WriteText(&lbuf, lres); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{"lint", body, lbuf.String()})
	}

	cfg := Config{
		Workers:     1,
		PersistDir:  dir,
		MaxInflight: 4,
		MaxQueue:    64,
	}
	// boot starts a server whose persist store sits on a faulty disk and
	// whose /v1 endpoints sit behind a faulty network, both driven by one
	// injector. Health probes and metrics stay unwrapped: they must tell
	// the truth even while the network is being wrecked.
	boot := func(addr string, seed int64) (*Server, *faultinject.Injector, *http.Server, net.Listener) {
		t.Helper()
		inj := faultinject.New(seed, 0.08)
		s, err := newServer(cfg, faultinject.FS(persist.OSFS{}, inj))
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", s.Handler())
		mux.Handle("/v1/", faultinject.Handler(inj, time.Millisecond, s.Handler()))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		return s, inj, hs, ln
	}
	s1, inj1, hs1, ln := boot("127.0.0.1:0", 42)
	addr := ln.Addr().String()

	base := "http://" + addr + "/v1/"

	var (
		mu                  sync.Mutex
		successes, failures int
	)
	runPhase := func(workers, perWorker int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					j := jobs[(w*perWorker+i)%len(jobs)]
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					got, err := postUntilAnswered(ctx, base+j.call, j.body)
					cancel()
					mu.Lock()
					if err != nil {
						failures++
					} else {
						successes++
						if string(got) != j.want {
							t.Errorf("%s response diverges from ground truth:\n--- got ---\n%s--- want ---\n%s",
								j.call, got, j.want)
						}
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}

	// Phase 1: soak until every bundle has had many chances to persist.
	runPhase(4, 24)

	recs, err := filepath.Glob(filepath.Join(dir, "objects", "*.rec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records persisted during phase 1; the soak cannot test restart recovery")
	}

	// Abrupt kill mid-soak: phase 2 is already in flight when the
	// listener and every open connection are severed with no drain. The
	// POST loops' retries must bridge the gap to the restarted process.
	phase2 := make(chan struct{})
	go func() {
		defer close(phase2)
		runPhase(4, 24)
	}()
	time.Sleep(30 * time.Millisecond)
	hs1.Close()

	// While the server is down, corrupt one live record in place — the
	// torn-write the format exists to catch. The restarted server must
	// quarantine it on first read, never serve it. Requests the close
	// cut off may still be evicting or quarantining records of the first
	// server, so the record corrupted is the first one still on disk.
	corrupted := false
	for _, rec := range recs {
		raw, err := os.ReadFile(rec)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x40
		if err := os.WriteFile(rec, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted = true
		break
	}
	if !corrupted {
		t.Fatal("every record persisted in phase 1 is gone; none left to corrupt")
	}

	s2, inj2, hs2, _ := boot(addr, 43)
	defer hs2.Close()
	<-phase2

	mu.Lock()
	t.Logf("soak: %d successes, %d failures at the per-call deadline", successes, failures)
	mu.Unlock()
	if successes == 0 {
		t.Fatal("soak produced no successful responses")
	}

	st1, st2 := s1.Store().Stats(), s2.Store().Stats()
	if st1.ServedCorrupt != 0 || st2.ServedCorrupt != 0 {
		t.Errorf("corrupt records served: before restart %d, after %d — must be 0",
			st1.ServedCorrupt, st2.ServedCorrupt)
	}
	if st2.Hits == 0 {
		t.Errorf("restarted server stats = %+v: zero persist hits, warm restart did not recover the cache", st2)
	}
	if st2.Corrupt == 0 {
		t.Errorf("restarted server stats = %+v: the planted corruption was never detected", st2)
	}
	chaosTotal := inj1.Total() + inj2.Total()
	if chaosTotal == 0 {
		t.Error("no faults injected; the soak exercised nothing")
	}
	t.Logf("soak: %d faults injected; store before=%+v after=%+v", chaosTotal, st1, st2)
}

// postUntilAnswered POSTs a JSON body to url until the server answers:
// connection errors, 5xx and 429 are retried after a short fixed
// backoff until ctx ends. Any other status is returned as an error; a
// 200 returns its body.
func postUntilAnswered(ctx context.Context, url string, body []byte) ([]byte, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			got, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch code := resp.StatusCode; {
			case rerr != nil || code >= 500 || code == http.StatusTooManyRequests:
			case code == http.StatusOK:
				return got, nil
			default:
				return nil, fmt.Errorf("status %d: %s", code, got)
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

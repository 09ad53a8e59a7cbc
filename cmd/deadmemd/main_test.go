package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a strings.Builder safe for the writer goroutine (run)
// and the reader (test) to share.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestVersionFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-version"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "deadmemd ") {
		t.Errorf("version output = %q, want deadmemd prefix", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-nonsense"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"stray-arg"}, &out, &errOut); code != 2 {
		t.Errorf("positional arg: exit %d, want 2", code)
	}
	// deadmemd is one daemon: the fleet coordinator and the chaos
	// layer are not part of the binary, so their flags are unknown. The
	// unlistenable address makes a binary that still accepted them fail
	// with 1 instead of serving.
	for _, removed := range [][]string{
		{"-coordinator"},
		{"-workers=http://x"},
		{"-coordinator", "-workers=http://x"},
		{"-chaos-rate=0.1"},
	} {
		args := append(removed, "-addr", "256.256.256.256:99999")
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", removed, code)
		}
	}
	if code := run([]string{"-addr", "256.256.256.256:99999"}, &out, &errOut); code != 1 {
		t.Errorf("unlistenable addr: exit %d, want 1", code)
	}
}

// TestServeAndGracefulShutdown boots the daemon on an ephemeral port and
// delivers SIGTERM: run must drain and exit 0 within the grace period.
func TestServeAndGracefulShutdown(t *testing.T) {
	var out, errOut syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "2s"}, &out, &errOut)
	}()

	deadline := time.After(5 * time.Second)
	for !strings.Contains(errOut.String(), "listening on") {
		select {
		case code := <-done:
			t.Fatalf("exited early with %d, stderr: %s", code, errOut.String())
		case <-deadline:
			t.Fatalf("never started listening, stderr: %s", errOut.String())
		case <-time.After(10 * time.Millisecond):
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after SIGTERM, stderr: %s", code, errOut.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("did not shut down after SIGTERM, stderr: %s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "stopped") {
		t.Errorf("missing drain log, stderr: %s", errOut.String())
	}
}

// listenAddr extracts the base URL from the daemon's startup log line.
func listenAddr(t *testing.T, errOut *syncBuffer, done chan int) string {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		s := errOut.String()
		if i := strings.Index(s, "listening on "); i >= 0 {
			rest := s[i+len("listening on "):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				return strings.TrimSpace(rest[:j])
			}
		}
		select {
		case code := <-done:
			t.Fatalf("exited early with %d, stderr: %s", code, errOut.String())
		case <-deadline:
			t.Fatalf("never started listening, stderr: %s", errOut.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestLameDuckWindowRefusesNewWork: with -lame-duck set, SIGTERM keeps
// the listener up for the window — /readyz answers 503 (so load
// balancers see the failed probe) and new analysis requests are refused
// with 503 rather than a connection error — before the daemon exits 0.
func TestLameDuckWindowRefusesNewWork(t *testing.T) {
	var out, errOut syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-lame-duck", "1500ms", "-drain-timeout", "2s"}, &out, &errOut)
	}()
	base := listenAddr(t, &errOut, done)

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: status %d, want 200", resp.StatusCode)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait for the drain to take effect, then verify the lame-duck
	// contract while the window is still open.
	deadline := time.Now().Add(time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatalf("listener gone during lame-duck window: %v", err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never flipped to 503, last status %d", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	post, err := http.Post(base+"/v1/analyze?file=s.mcc", "text/x-mcc", strings.NewReader("int main() { return 0; }"))
	if err != nil {
		t.Fatalf("new request during lame-duck window: %v", err)
	}
	body, _ := io.ReadAll(post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new request during lame-duck: status %d, want 503 (body: %s)", post.StatusCode, body)
	}

	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after SIGTERM, stderr: %s", code, errOut.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("did not shut down, stderr: %s", errOut.String())
	}
}

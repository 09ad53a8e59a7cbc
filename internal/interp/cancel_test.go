package interp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"deadmembers/internal/engine"
	"deadmembers/internal/interp"
)

const spinSrc = `
int main() {
	int n = 0;
	while (true) { n = n + 1; }
	return n;
}
`

// TestRunDeadline: a wall-clock deadline aborts a long execution with a
// *CancelError that unwraps to context.DeadlineExceeded.
func TestRunDeadline(t *testing.T) {
	r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "spin.mcc", Text: spinSrc})
	if err := r.Err(); err != nil {
		t.Fatalf("compile errors:\n%v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := interp.Run(r.Program, r.Hierarchy, interp.Options{Context: ctx})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected a cancellation error, run completed")
	}
	var ce *interp.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T (%v), want *interp.CancelError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not unwrap to DeadlineExceeded: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("run took %v to honor a 50ms deadline", elapsed)
	}
}

// TestRunPreCancelled: an already-cancelled context stops the run at the
// first step-boundary poll.
func TestRunPreCancelled(t *testing.T) {
	r := engine.Compile(engine.Config{Workers: 1}, engine.Source{Name: "spin.mcc", Text: spinSrc})
	if err := r.Err(); err != nil {
		t.Fatalf("compile errors:\n%v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := interp.Run(r.Program, r.Hierarchy, interp.Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunWithoutContext: a nil context leaves behavior unchanged.
func TestRunWithoutContext(t *testing.T) {
	res, err := tryRun(t, `int main() { return 7; }`)
	if err != nil || res.ExitCode != 7 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one call into a layer, recorded by the benchmark around its own
// call. Spans of one operation share Trace and Op, the name of the program
// the operation processes; Round numbers the repetition of the traced
// pass the span belongs to.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   int    `json:"trace"`
	Op      string `json:"op"`
	Round   int    `json:"round"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Heap allocated during the call, from runtime.MemStats read just
	// outside the timed interval. Exact only for calls that run on the
	// calling goroutine alone, which every traced layer call does.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
}

// tracer keeps spans in memory for one goroutine; they are written out
// when the run ends. A nil *tracer records nothing. Calls nest: the
// innermost open span is the parent of the next one.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	trace int
	op    string
	round int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin starts a new operation on the named program: later spans share
// its trace identifier.
func (t *tracer) begin(op string) {
	if t != nil {
		t.trace++
		t.op = op
	}
}

// call runs fn inside a span named name, a child of the innermost span
// still open.
func (t *tracer) call(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.trace, Op: t.op, Round: t.round, Name: name})
	t.open = append(t.open, id)
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
	runtime.ReadMemStats(&after)
	s := &t.spans[id-1]
	s.StartNS, s.EndNS = int64(start), int64(end)
	s.AllocBytes = after.TotalAlloc - before.TotalAlloc
	s.Mallocs = after.Mallocs - before.Mallocs
}

// layerTotals sums, per span name, what one round spent in that layer.
type layerTotals struct {
	self    time.Duration // span time not covered by child spans
	alloc   uint64
	mallocs uint64
	calls   int
}

// totalsByRound aggregates the spans of the operations keep selects into
// per-round, per-name totals. A span's self time is its duration minus
// the part of it its children cover; children of one span never overlap,
// since each tracer belongs to one goroutine.
func (t *tracer) totalsByRound(keep func(op string) bool) map[int]map[string]*layerTotals {
	childTime := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[int]map[string]*layerTotals{}
	for _, s := range t.spans {
		if !keep(s.Op) {
			continue
		}
		byName := out[s.Round]
		if byName == nil {
			byName = map[string]*layerTotals{}
			out[s.Round] = byName
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			byName[s.Name] = lt
		}
		lt.self += time.Duration(s.EndNS - s.StartNS - childTime[s.ID])
		lt.alloc += s.AllocBytes
		lt.mallocs += s.Mallocs
		lt.calls++
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

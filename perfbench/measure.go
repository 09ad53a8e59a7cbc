package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// recorder collects the operations of one measured phase. An operation
// is one pass over the workload's inputs; the units within it (a
// program's verdict, a daemon request) are timed as parts.
type recorder struct {
	wall      []time.Duration // per pass, wall clock
	cpu       []time.Duration // per pass, CPU time of the whole process
	rss       []float64       // per pass, peak resident memory in MiB
	rssErr    error           // the first failure to read resident memory
	parts     []time.Duration // per unit within a pass, wall clock
	attempted int64
	failed    int64
	bytes     int64 // source bytes of the completed static passes
	steps     [2]int64
	execTime  [2]time.Duration // per engine: tree, vm
	failures  []string
}

// passes calls pass once, then again until d has elapsed, and records
// each call's wall-clock and CPU time, its peak resident memory, and the
// source bytes it processed. Every pass starts from a collected heap
// whose free memory has gone back to the OS, as a fresh deadmem or
// deadlint process does, so neither the collections within a pass nor
// its memory depend on where the previous pass left the heap.
func (r *recorder) passes(d time.Duration, bytes int64, pass func()) {
	rss := sampleRSS()
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		debug.FreeOSMemory()
		rss.window()
		wall, cpu := timed(pass)
		r.wall = append(r.wall, wall)
		r.cpu = append(r.cpu, cpu)
		r.rss = append(r.rss, rss.window())
		r.bytes += bytes
	}
	if err := rss.stop(); err != nil && r.rssErr == nil {
		r.rssErr = err
	}
}

// check records the outcome of one output check: a unit of a pass, or a
// check made outside any pass, such as the corpus-wide finding count.
func (r *recorder) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// part records the wall-clock latency of one unit within a pass.
func (r *recorder) part(lat time.Duration) {
	r.parts = append(r.parts, lat)
}

// exec adds one execution's steps and time to an engine's totals.
func (r *recorder) exec(engine int, steps int64, d time.Duration) {
	r.steps[engine] += steps
	r.execTime[engine] += d
}

// cpuTime returns the CPU time the process has used so far, on all its
// threads. Unlike wall-clock time it leaves out the time the host gives
// to other guests (the kernel accounts that as steal) and the time the
// process waits for a core, so a pass's CPU time is its own cost.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs fn and returns its wall-clock and CPU time.
func timed(fn func()) (wall, cpu time.Duration) {
	w0, c0 := time.Now(), cpuTime()
	fn()
	return time.Since(w0), cpuTime() - c0
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func toMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// slope fits log(y) = a + b·log(x) by least squares and returns b: the
// exponent of a power law y ∝ x^b.
func slope(xs, ys []float64) float64 {
	var n, sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		n++
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if n < 2 || den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// rssSampler samples the process's resident set size (VmRSS) every 10
// ms from a goroutine of its own and keeps the highest sample of the
// current window.
type rssSampler struct {
	mu     sync.Mutex
	peak   float64
	err    error
	done   chan struct{}
	exited chan struct{}
}

func sampleRSS() *rssSampler {
	s := &rssSampler{done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(s.exited)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	mb, err := residentMB()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.peak = max(s.peak, mb)
}

// window takes one more sample, ends the current window, returning its
// highest sample, and starts the next.
func (s *rssSampler) window() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := s.peak
	s.peak = 0
	return peak
}

// stop ends the sampling goroutine, waits for it, and returns the first
// failure to read resident memory.
func (s *rssSampler) stop() error {
	close(s.done)
	<-s.exited
	return s.err
}

// residentMB reads the process's resident set size (VmRSS) from /proc,
// in MiB.
func residentMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("resident memory: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != "VmRSS:" {
			continue
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("resident memory: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("resident memory: no VmRSS line in /proc/self/status")
}

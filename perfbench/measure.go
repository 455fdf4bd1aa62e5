package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/trace"
)

// heapCounters are the runtime counters read around every timed call.
type heapCounters struct{ allocBytes, allocs, live uint64 }

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/live:bytes"},
}

func readHeap() heapCounters {
	metrics.Read(heapSamples)
	return heapCounters{
		allocBytes: heapSamples[0].Value.Uint64(),
		allocs:     heapSamples[1].Value.Uint64(),
		live:       heapSamples[2].Value.Uint64(),
	}
}

// hostNow and hostSince read the host clock, which the benchmark
// measures the simulator against; no reading feeds a simulation.
func hostNow() time.Time { return time.Now() } //reprolint:ignore determinism: host-time benchmark, never feeds simulation

func hostSince(t time.Time) time.Duration { return time.Since(t) } //reprolint:ignore determinism: host-time benchmark, never feeds simulation

// timing is one timed call.
type timing struct {
	wall              time.Duration
	allocBytes, alloc uint64
}

// timeCall times fn alone and counts the heap allocations it makes.
// Nothing else the benchmark owns runs meanwhile.
func timeCall(fn func()) timing {
	before := readHeap()
	start := hostNow()
	fn()
	wall := hostSince(start)
	after := readHeap()
	return timing{
		wall:       wall,
		allocBytes: after.allocBytes - before.allocBytes,
		alloc:      after.allocs - before.allocs,
	}
}

// passResult is one pass over a workload's calls.
type passResult struct {
	wall              time.Duration
	allocBytes, alloc uint64
	calls             []timing
	outcomes          []outcome
	errs              []error
}

// runPass makes every call once, in order, each after a forced
// collection, and reads each call's result back once its timed window
// has closed. Calls for which traced is true get their own trace
// collector, handed to after(i, col) once the call returns (even with an
// error, which the caller's check counts). With a profDir, each call is
// CPU-profiled into it; the profile starts after the collection and
// stops before after runs, so neither lands in it.
func runPass(calls []call, traced func(call) bool, profDir string, after func(i int, col *trace.Collector) error) (passResult, error) {
	p := passResult{
		calls:    make([]timing, len(calls)),
		outcomes: make([]outcome, len(calls)),
		errs:     make([]error, len(calls)),
	}
	for i, c := range calls {
		var col *trace.Collector
		if traced != nil && traced(c) {
			col = trace.NewCollector()
		}
		runtime.GC()
		var prof *os.File
		if profDir != "" {
			f, err := os.CreateTemp(profDir, "cpu-*.pprof")
			if err != nil {
				return p, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return p, err
			}
			prof = f
		}
		var readback func() outcome
		t := timeCall(func() { readback, p.errs[i] = c.run(col) })
		if prof != nil {
			pprof.StopCPUProfile()
			if err := prof.Close(); err != nil {
				return p, fmt.Errorf("write profile: %w", err)
			}
		}
		if readback != nil {
			p.outcomes[i] = readback()
		}
		if col != nil {
			if err := after(i, col); err != nil {
				return p, err
			}
		}
		p.calls[i] = t
		p.wall += t.wall
		p.allocBytes += t.allocBytes
		p.alloc += t.alloc
	}
	return p, nil
}

// probeResult is the set-up probes' view of one pass.
type probeResult struct {
	setup     time.Duration // per-call median build time, summed over calls
	worldHeap uint64        // per-call median live heap of the build, summed
	failed    int           // calls whose probe build failed
}

// Each distinct configuration is built at least minProbes and at most
// maxProbes times, stopping once probeBudget has been spent on it; the
// median rejects the occasional slow build.
const (
	minProbes   = 5
	maxProbes   = 25
	probeBudget = time.Second
)

// probeSetup builds every distinct configuration the pass builds,
// outside any timed window, and sums the medians over the pass's calls.
func probeSetup(calls []call) probeResult {
	type med struct {
		build time.Duration
		heap  uint64
		err   error
	}
	meds := map[string]med{}
	var res probeResult
	for _, c := range calls {
		m, ok := meds[c.probeKey]
		if !ok {
			var builds []time.Duration
			var heaps []uint64
			spent := hostNow()
			for i := 0; m.err == nil && i < maxProbes && (i < minProbes || hostSince(spent) < probeBudget); i++ {
				runtime.GC()
				before := readHeap()
				start := hostNow()
				built, err := c.probe()
				builds = append(builds, hostSince(start))
				runtime.GC()
				after := readHeap()
				runtime.KeepAlive(built)
				m.err = err
				heaps = append(heaps, after.live-min(after.live, before.live))
			}
			m.build = median(builds)
			m.heap = median(heaps)
			meds[c.probeKey] = m
		}
		if m.err != nil {
			res.failed++
		}
		res.setup += m.build
		res.worldHeap += m.heap
	}
	return res
}

type ordered interface {
	~int64 | ~uint64 | ~float64
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is sorted in place.
func median[T ordered](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the highest percentile of xs that leaves at least ten
// samples above it, and that percentile; ok is false with fewer than
// eleven samples.
func tail[T ordered](xs []T) (v T, pct int, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	idx := n - 11 // ten samples lie above xs[idx]
	return xs[idx], (idx + 1) * 100 / n, true
}

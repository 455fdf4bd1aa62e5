package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// virtLayers are the trace layers whose main-track self time the traced
// run reports as virt.<layer>.self_ticks.
var virtLayers = []trace.Layer{
	trace.LApp, trace.LMPI, trace.LPolicy, trace.LAlloc, trace.LRegcache,
	trace.LVerbs, trace.LHCA, trace.LVM, trace.LPhys, trace.LTier,
}

// traceView is what one call's trace yields.
type traceView struct {
	self     map[string]simtime.Ticks // main-track self time per layer
	idle     simtime.Ticks
	comm     simtime.Ticks // outermost MPI spans, summed over ranks
	badProcs int           // ranks whose partition does not sum to Elapsed
	// n counts trace records: "acquires" and "cache_hits" (pin-down
	// cache lookups), "regs" and "reg_ticks" (registrations), "posts" and
	// "sges" (work requests), "bus_bytes", "att_hits" and "att_misses"
	// (DMA), "promoted", "demoted" and "migrated" (memtier pages and
	// bytes), "wr_retries".
	n map[string]int64
}

// readTrace renders a call's collector the way the tools write it,
// parses it back and reduces it to the traced run's per-layer view.
func readTrace(col *trace.Collector) (traceView, error) {
	var buf bytes.Buffer
	if err := col.WritePerfetto(&buf); err != nil {
		return traceView{}, fmt.Errorf("write trace: %w", err)
	}
	d, err := trace.ParsePerfetto(&buf)
	if err != nil {
		return traceView{}, err
	}
	v := traceView{self: map[string]simtime.Ticks{}, n: map[string]int64{}}
	elapsed := d.Elapsed()
	for _, b := range d.Breakdowns() {
		if b.Total() != elapsed {
			v.badProcs++
		}
		for l, t := range b.Self {
			v.self[l] += t
		}
		v.idle += b.Idle
	}
	mpiSpans := map[int][]trace.PSpan{}
	for _, s := range d.Spans {
		switch layer := trace.Layer(s.Layer); {
		case layer == trace.LMPI && s.Name == "wr.retry":
			v.n["wr_retries"]++
		case layer == trace.LRegcache && s.Name == "acquire":
			v.n["acquires"]++
			v.n["cache_hits"] += s.Args["hit"]
		case layer == trace.LVerbs && s.Name == "RegMR":
			v.n["regs"]++
			v.n["reg_ticks"] += int64(s.Dur)
		case layer == trace.LHCA && (s.Name == "post" || s.Name == "wr.post"):
			v.n["posts"]++
			v.n["sges"] += s.Args["sges"]
		case layer == trace.LHCA && (s.Name == "dma.gather" || s.Name == "dma.scatter"):
			v.n["bus_bytes"] += s.Args["bytes"]
			v.n["att_hits"] += s.Args["att_hit"]
			v.n["att_misses"] += s.Args["att_miss"]
		}
		if trace.Layer(s.Layer) == trace.LMPI && s.TID == trace.TrackMain {
			mpiSpans[s.PID] = append(mpiSpans[s.PID], s)
		}
	}
	for _, e := range d.Events {
		if trace.Layer(e.Layer) == trace.LTier && e.Name == "migrate" {
			if e.Args["tier"] == 0 {
				v.n["promoted"] += e.Args["pages"]
			} else {
				v.n["demoted"] += e.Args["pages"]
			}
			v.n["migrated"] += e.Args["bytes"]
		}
	}
	for _, spans := range mpiSpans {
		v.comm += outermost(spans)
	}
	return v, nil
}

// outermost sums the spans of one track that no other span of the set
// encloses: the MPI calls themselves, not their protocol phases.
func outermost(spans []trace.PSpan) simtime.Ticks {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Dur > spans[j].Dur
	})
	var total, end simtime.Ticks
	for i, s := range spans {
		if i == 0 || s.Start >= end {
			total += s.Dur
			end = s.End()
		}
	}
	return total
}

// add folds another call's view into v.
func (v *traceView) add(o traceView) {
	if v.self == nil {
		v.self, v.n = map[string]simtime.Ticks{}, map[string]int64{}
	}
	for l, t := range o.self {
		v.self[l] += t
	}
	for k, c := range o.n {
		v.n[k] += c
	}
	v.idle += o.idle
	v.comm += o.comm
	v.badProcs += o.badProcs
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// virtMetrics turns a pass's folded trace view and its node reports
// into the exact per-layer metrics.
func virtMetrics(v traceView, nodes []node.Stats, tierMigrates, tierRecomputes int64) map[string]float64 {
	m := map[string]float64{}
	for _, l := range virtLayers {
		m["virt."+string(l)+".self_ticks"] = float64(v.self[string(l)])
	}
	m["virt.idle_ticks"] = float64(v.idle)
	n := v.n
	m["regcache.hit_ratio"] = ratio(n["cache_hits"], n["acquires"])
	m["verbs.registrations"] = float64(n["regs"])
	m["verbs.reg_ticks"] = float64(n["reg_ticks"])
	m["hca.att_hit_ratio"] = ratio(n["att_hits"], n["att_hits"]+n["att_misses"])
	m["hca.posted_wrs"] = float64(n["posts"])
	m["hca.bus_bytes"] = float64(n["bus_bytes"])
	m["hca.sges_per_wr"] = ratio(n["sges"], n["posts"])
	m["memtier.promotions"] = float64(n["promoted"])
	m["memtier.demotions"] = float64(n["demoted"])
	m["memtier.migrated_bytes"] = float64(n["migrated"])
	m["faults.wr_retries"] = float64(n["wr_retries"])
	m["policy.tier_migrates"] = float64(tierMigrates)
	m["policy.tier_recomputes"] = float64(tierRecomputes)
	t := node.Sum(nodes)
	m["regcache.evictions"] = float64(t.Cache.Evictions)
	hits := t.TLB.Hits4K + t.TLB.Hits2M
	m["tlb.hit_ratio"] = ratio(hits, hits+t.TLB.Misses4K+t.TLB.Misses2M)
	m["tlb.misses_2m"] = float64(t.TLB.Misses2M)
	m["alloc.syscalls"] = float64(t.Alloc.Syscalls)
	m["alloc.fallback_to_small"] = float64(t.Alloc.FallbackToSmall)
	return m
}

// hostPkgs are the repro/internal packages the profile attribution
// reports on their own; samples in any other one count as host.other.
var hostPkgs = []string{
	"nas", "workload", "imb", "wrbench", "mpi", "sched", "hca", "verbs",
	"regcache", "vm", "phys", "tlb", "memmodel", "alloc", "memtier",
	"policy", "node", "trace",
}

const internalPrefix = "repro/internal/"

// attribute charges one CPU-profile sample, given as its stack with the
// innermost function first: to the package of the innermost
// repro/internal frame (hostPkgs, else "other"); with no such frame, to
// "gc" for a collector goroutine and to "other" for anything else.
func attribute(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			if slices.Contains(hostPkgs, pkg) {
				return pkg
			}
			return "other"
		}
	}
	if slices.ContainsFunc(stack, isGCFrame) {
		return "gc"
	}
	return "other"
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

var (
	sampleLine   = regexp.MustCompile(`^\s*(\d+)\s+(\d+):((?:\s+\d+)*)\s*$`)
	locationLine = regexp.MustCompile(`^\s*(\d+): 0x[0-9a-f]+ (?:M=\d+ )?(\S+) `)
	inlineLine   = regexp.MustCompile(`^\s+(\S+) \S+:\d+:\d+ s=\d+$`)
)

// sample is one CPU-profile sample: its CPU time and its stack,
// innermost function first.
type sample struct {
	count, nanos int64
	stack        []string
}

// parseRaw reads `go tool pprof -raw` text: the Samples section (a
// count/nanoseconds line of location ids, innermost first) and the
// Locations section (an id line, then one line per inlined caller,
// innermost function first).
func parseRaw(r io.Reader) ([]sample, error) {
	type rawSample struct {
		count, nanos int64
		locs         []int
	}
	var raws []rawSample
	locs := map[int][]string{}
	section, lastLoc := "", 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSpace(line)
			continue
		}
		switch section {
		case "Samples:":
			if m := sampleLine.FindStringSubmatch(line); m != nil {
				// The patterns admit only digits, so the conversions
				// cannot fail.
				count, _ := strconv.ParseInt(m[1], 10, 64)
				nanos, _ := strconv.ParseInt(m[2], 10, 64)
				var ids []int
				for _, f := range strings.Fields(m[3]) {
					id, _ := strconv.Atoi(f)
					ids = append(ids, id)
				}
				raws = append(raws, rawSample{count: count, nanos: nanos, locs: ids})
			}
		case "Locations":
			if m := locationLine.FindStringSubmatch(line); m != nil {
				lastLoc, _ = strconv.Atoi(m[1])
				locs[lastLoc] = []string{m[2]}
			} else if m := inlineLine.FindStringSubmatch(line); m != nil && lastLoc != 0 {
				locs[lastLoc] = append(locs[lastLoc], m[1])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(raws) == 0 {
		return nil, fmt.Errorf("pprof -raw: no samples")
	}
	out := make([]sample, len(raws))
	for i, rs := range raws {
		out[i] = sample{count: rs.count, nanos: rs.nanos}
		for _, id := range rs.locs {
			fns, ok := locs[id]
			if !ok {
				return nil, fmt.Errorf("pprof -raw: sample names unknown location %d", id)
			}
			out[i].stack = append(out[i].stack, fns...)
		}
	}
	return out, nil
}

// Command perfbench is the repository benchmark: it runs one workload of
// the simulator's public entry points for a fixed host-time budget and
// prints its metrics as one JSON line. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// gomaxprocs is pinned: the simulator runs one task at a time, and a
// second P only adds collector and scheduler noise to host timings.
const gomaxprocs = 1

type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"makespan_ticks", "ticks"},
	{"comm_ticks", "ticks"},
	{"host_alloc_bytes", "bytes"},
	{"host_allocs", "count"},
	{"world_heap_bytes", "bytes"},
}

// callNames are the entry points whose call spans the traced run
// reports as call.<name>_s (call.mpi.NewWorld_s is the set-up probes').
var callNames = []string{
	"nas.cg", "nas.ep", "nas.is", "nas.lu", "nas.mg",
	"imb.SendRecv", "imb.PingPong", "imb.Exchange",
	"wrbench.SGESweep", "wrbench.OffsetSweep",
	"workload.RunMoE", "workload.RunKV", "workload.RunHalo",
}

// perLayer returns the --trace 1 metrics, in BENCHMARK.json order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, p := range hostPkgs {
		defs = append(defs, metricDef{"host." + p + ".self_s", "s"})
	}
	defs = append(defs,
		metricDef{"host.gc", "s"}, metricDef{"host.other", "s"},
		metricDef{"host.samples", "count"}, metricDef{"host.wall_s", "s"},
		metricDef{"host.trace_overhead_s", "s"})
	for _, c := range append([]string{"mpi.NewWorld"}, callNames...) {
		defs = append(defs, metricDef{"call." + c + "_s", "s"})
	}
	for _, l := range virtLayers {
		defs = append(defs, metricDef{"virt." + string(l) + ".self_ticks", "ticks"})
	}
	defs = append(defs, metricDef{"virt.idle_ticks", "ticks"})
	for _, c := range []metricDef{
		{"regcache.hit_ratio", "ratio"}, {"regcache.evictions", "count"},
		{"verbs.registrations", "count"}, {"verbs.reg_ticks", "ticks"},
		{"hca.att_hit_ratio", "ratio"}, {"hca.posted_wrs", "count"},
		{"hca.bus_bytes", "bytes"}, {"hca.sges_per_wr", "ratio"},
		{"tlb.hit_ratio", "ratio"}, {"tlb.misses_2m", "count"},
		{"alloc.syscalls", "count"}, {"alloc.fallback_to_small", "count"},
		{"memtier.promotions", "count"}, {"memtier.demotions", "count"},
		{"memtier.migrated_bytes", "bytes"},
		{"policy.tier_migrates", "count"}, {"policy.tier_recomputes", "count"},
		{"faults.wr_retries", "count"},
	} {
		defs = append(defs, c)
	}
	return defs
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds of timed passes")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced, profiled passes")
	statscheck := fs.String("statscheck", ".bench_build/statscheck", "statscheck binary")
	workdir := fs.String("workdir", ".bench_build", "directory for the temporary CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	calls, err := buildWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	b := &bench{
		workload: *name, calls: calls,
		budget:     time.Duration(*seconds * float64(time.Second)),
		statscheck: *statscheck, stderr: stderr,
	}
	var res result
	if *traceMode == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.perLayer(*workdir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "detail: %s\n", b.detail)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	workload   string
	calls      []call
	budget     time.Duration
	statscheck string
	stderr     io.Writer

	attempted, failed int
	ref               passResult // the first pass: the outputs later passes must repeat
	detail            string     // the human-readable line printed before the result
}

// checkCall counts one call against the correctness gate: an error from
// the entry point, or virtual outputs that differ from the reference
// pass of this seed. It reports whether the call passed.
func (b *bench) checkCall(i int, o outcome, err error) bool {
	b.attempted++
	switch {
	case err != nil:
		b.fail("%s: %v", b.calls[i].name, err)
	case b.ref.outcomes != nil && o.virt != b.ref.outcomes[i].virt:
		b.fail("%s: virtual outputs differ between passes", b.calls[i].name)
	default:
		return true
	}
	return false
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(b.stderr, "perfbench: "+format+"\n", args...)
}

func (b *bench) check(p passResult) {
	for i := range p.errs {
		b.checkCall(i, p.outcomes[i], p.errs[i])
	}
}

// statscheckAll holds the reference pass's node reports to the
// statscheck invariants.
func (b *bench) statscheckAll() {
	for i, o := range b.ref.outcomes {
		if o.nodes == nil {
			continue
		}
		b.attempted++
		if err := b.runStatscheck(b.calls[i].name, o.nodes); err != nil {
			b.fail("%s: %v", b.calls[i].name, err)
		}
	}
}

// readTrace reduces call i's trace, failing the call when a rank's
// layer partition does not sum to the trace's elapsed time.
func (b *bench) readTrace(i int, col *trace.Collector) (traceView, error) {
	v, err := readTrace(col)
	if err != nil {
		return v, err
	}
	b.attempted++
	if v.badProcs > 0 {
		b.fail("%s: %d ranks' layer partition does not sum to the trace's elapsed time", b.calls[i].name, v.badProcs)
	}
	return v, nil
}

// runStatscheck pipes one call's node reports through the repository's
// -stats validator.
func (b *bench) runStatscheck(name string, nodes []node.Stats) error {
	var in bytes.Buffer
	if err := node.WriteReports(&in, []node.Report{node.NewReport("perfbench", name, nodes[0].Machine, "", nodes)}); err != nil {
		return err
	}
	cmd := exec.Command(b.statscheck)
	cmd.Stdin = &in
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("statscheck: %v: %s", err, bytes.TrimSpace(out))
	}
	return nil
}

// pass runs one pass and checks it. The first pass of a run is the
// reference: later passes must repeat its virtual outputs, and its node
// reports must hold the statscheck invariants.
func (b *bench) pass(traced func(call) bool, profDir string, after func(i int, col *trace.Collector) error) (passResult, error) {
	p, err := runPass(b.calls, traced, profDir, after)
	if err != nil {
		return p, err
	}
	b.check(p)
	if b.ref.outcomes == nil {
		b.ref = p
		b.statscheckAll()
	}
	return p, nil
}

// passes runs passes until budget is spent, at least one.
func (b *bench) passes(budget time.Duration, traced func(call) bool, profDir string, after func(i int, col *trace.Collector) error) ([]passResult, error) {
	var passes []passResult
	start := hostNow()
	for len(passes) == 0 || hostSince(start) < budget {
		p, err := b.pass(traced, profDir, after)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

func commFromTrace(c call) bool { return c.commFromTrace }
func traceable(c call) bool     { return !c.untraceable }

func (b *bench) endToEnd() (result, error) {
	probes := probeSetup(b.calls)
	b.attempted += len(b.calls)
	b.failed += probes.failed
	// The untimed first pass warms the heap and is the reference. It
	// traces the entry points that return no mpiP, for their
	// communication time.
	var comm simtime.Ticks
	_, err := b.pass(commFromTrace, "", func(i int, col *trace.Collector) error {
		v, err := b.readTrace(i, col)
		comm += v.comm
		return err
	})
	if err != nil {
		return result{}, err
	}
	passes, err := b.passes(b.budget, nil, "", nil)
	if err != nil {
		return result{}, err
	}
	var walls []float64
	var allocBytes, allocs []uint64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		allocBytes = append(allocBytes, p.allocBytes)
		allocs = append(allocs, p.alloc)
	}
	var makespan simtime.Ticks
	for _, o := range b.ref.outcomes {
		makespan += o.makespan
		comm += o.comm
	}
	b.detail = wallDetail(b.workload, walls)
	vals := map[string]float64{
		"setup_s":          probes.setup.Seconds(),
		"makespan_ticks":   float64(makespan),
		"comm_ticks":       float64(comm),
		"host_alloc_bytes": float64(median(allocBytes)),
		"host_allocs":      float64(median(allocs)),
		"world_heap_bytes": float64(probes.worldHeap),
	}
	return b.result(endToEnd, vals), nil
}

// wallDetail renders the pass-time distribution: median, the highest
// percentile with ten passes beyond it (when there are eleven or more),
// and the sample count, with the pinned GOMAXPROCS.
func wallDetail(workload string, walls []float64) string {
	d := map[string]any{
		"workload": workload, "gomaxprocs": runtime.GOMAXPROCS(0), "godebug": os.Getenv("GODEBUG"),
		"passes": len(walls), "wall_s_median": median(slices.Clone(walls)),
		"wall_s_passes": walls,
	}
	if v, pct, ok := tail(slices.Clone(walls)); ok {
		d["wall_s_tail"] = v
		d["wall_s_tail_pct"] = pct
	}
	line, _ := json.Marshal(d) // a map of numbers and strings always marshals
	return string(line)
}

func (b *bench) perLayer(workdir string) (result, error) {
	probes := probeSetup(b.calls)
	b.attempted += len(b.calls)
	b.failed += probes.failed
	// An untimed reference pass warms the heap. Untraced passes take the
	// first half of the budget, traced ones the second.
	if _, err := b.pass(nil, "", nil); err != nil {
		return result{}, err
	}
	untraced, err := b.passes(b.budget/2, nil, "", nil)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, err
	}
	profDir, err := os.MkdirTemp(workdir, "prof-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(profDir)

	// views[i][k] is call i's trace view in traced pass k.
	views := make([][]traceView, len(b.calls))
	after := func(i int, col *trace.Collector) error {
		v, err := b.readTrace(i, col)
		views[i] = append(views[i], v)
		return err
	}
	passes, err := b.passes(b.budget/2, traceable, profDir, after)
	if err != nil {
		return result{}, err
	}
	// The exact metrics must repeat in every traced pass.
	var exact map[string]float64
	for k, p := range passes {
		var all traceView
		var nodes []node.Stats
		var mig, rec int64
		for i, o := range p.outcomes {
			if k < len(views[i]) {
				all.add(views[i][k])
			}
			nodes = append(nodes, o.nodes...)
			mig += o.tierMigrates
			rec += o.tierRecomputes
		}
		m := virtMetrics(all, nodes, mig, rec)
		if k == 0 {
			exact = m
			continue
		}
		b.attempted++
		if !maps.Equal(m, exact) {
			b.fail("traced per-layer counts differ between passes")
		}
	}
	vals := maps.Clone(exact)
	host, samples, err := profileSeconds(profDir)
	if err != nil {
		return result{}, err
	}
	n := float64(len(passes))
	for _, p := range hostPkgs {
		vals["host."+p+".self_s"] = host[p] / n
	}
	vals["host.gc"] = host["gc"] / n
	vals["host.other"] = host["other"] / n
	vals["host.samples"] = float64(samples) / n
	var walls []float64
	perCall := map[string][]float64{}
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		sums := map[string]float64{}
		for i, t := range p.calls {
			sums[b.calls[i].name] += t.wall.Seconds()
		}
		for _, c := range callNames {
			perCall[c] = append(perCall[c], sums[c])
		}
	}
	var untracedWalls []float64
	for _, p := range untraced {
		untracedWalls = append(untracedWalls, p.wall.Seconds())
	}
	vals["host.wall_s"] = median(untracedWalls)
	vals["host.trace_overhead_s"] = median(walls) - vals["host.wall_s"]
	vals["call.mpi.NewWorld_s"] = probes.setup.Seconds()
	for _, c := range callNames {
		vals["call."+c+"_s"] = median(perCall[c])
	}
	b.detail = wallDetail(b.workload, untracedWalls)
	return b.result(perLayer(), vals), nil
}

// profileSeconds merges the per-call CPU profiles with `go tool pprof
// -raw` and charges each sample's CPU seconds to a layer.
func profileSeconds(dir string) (map[string]float64, int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "cpu-*.pprof"))
	if err != nil || len(files) == 0 {
		return nil, 0, errors.Join(errors.New("no CPU profiles written"), err)
	}
	var out, errOut bytes.Buffer
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-raw"}, files...)...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(errOut.Bytes()))
	}
	samples, err := parseRaw(&out)
	if err != nil {
		return nil, 0, err
	}
	secs := map[string]float64{}
	var count int64
	for _, s := range samples {
		secs[attribute(s.stack)] += float64(s.nanos) / 1e9
		count += s.count
	}
	return secs, int(count), nil
}

// result keeps exactly the metrics defs names, in their units.
func (b *bench) result(defs []metricDef, vals map[string]float64) result {
	r := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return r
}

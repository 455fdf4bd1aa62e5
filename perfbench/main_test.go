package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/trace"
)

// schedule draws the first n completion-error and ATT-eviction decisions
// a host armed with spec would see.
func schedule(spec *faults.Spec, n int) []bool {
	in := faults.New(spec, 0)
	var out []bool
	for i := 0; i < n; i++ {
		out = append(out, in.WRError(faults.StreamWRSend), in.ATTEvict(uint64(i%7)))
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	if !slices.Equal(schedule(faultSpec(1), 5000), schedule(faultSpec(1), 5000)) {
		t.Error("one seed gave two fault schedules")
	}
	if slices.Equal(schedule(faultSpec(1), 5000), schedule(faultSpec(2), 5000)) {
		t.Error("two seeds gave the same fault schedule")
	}
	m1, k1, h1 := modernParams(1)
	m1b, k1b, h1b := modernParams(1)
	if m1 != m1b || k1 != k1b || h1 != h1b {
		t.Error("one seed gave two sets of modern-pack inputs")
	}
	m2, k2, h2 := modernParams(2)
	if m1.Seed == m2.Seed || k1.Seed == k2.Seed || h1.Seed == h2.Seed {
		t.Error("two seeds gave the same modern-pack routing")
	}
	if m1.Seed == k1.Seed || k1.Seed == h1.Seed || faultSpec(1).Seed == m1.Seed {
		t.Error("the fault schedule and the routings share one stream")
	}
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	if n := len(workloadNames); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics, want at most 16", n)
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, want at most 128", n)
	}
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer()...) {
		if !namePattern.MatchString(d.name) || !unitPattern.MatchString(d.unit) {
			t.Errorf("bad metric %q (unit %q)", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloadNames {
		if !namePattern.MatchString(w) || seen[w] {
			t.Errorf("bad workload name %q", w)
		}
		if _, err := buildWorkload(w, 1); err != nil {
			t.Error(err)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		// Host sorting inside a kernel is the kernel's.
		{[]string{"sort.insertionSort_func", "sort.Slice", "repro/internal/nas.(*IS).Run", "repro/internal/mpi.(*World).Run.func1"}, "nas"},
		// Runtime work under a simulated layer is that layer's.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/hca.(*HCA).Gather", "repro/internal/mpi.(*Rank).Sendrecv"}, "hca"},
		{[]string{"repro/internal/nas.(*IS).Run.func2", "sort.Slice", "repro/internal/nas.(*IS).Run"}, "nas"},
		{[]string{"repro/internal/sched.(*Queue[go.shape.int64]).Push", "repro/internal/mpi.(*Rank).Send"}, "sched"},
		// A package outside the reported list.
		{[]string{"repro/internal/faults.(*Injector).WRError", "repro/internal/mpi.(*Rank).pollCQ"}, "other"},
		// Collector goroutines, and anything else outside the simulator.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm"}, "other"},
		{nil, "other"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

const rawProfile = `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 
          1   10000000: 3 
Locations
     1: 0x4a4fbc M=1 sort.insertionSort_func /usr/local/go/src/sort/zsortfunc.go:12:0 s=10
             sort.Slice /usr/local/go/src/sort/slice.go:20:0 s=18
     2: 0x4bea7e M=1 repro/internal/nas.(*IS).Run /src/internal/nas/is.go:99:0 s=49
     3: 0x43a2aa M=1 runtime.gcBgMarkWorker /usr/local/go/src/runtime/mgc.go:1400:0 s=1300
Mappings
1: 0x400000/0x4c0000/0x0 /bench
`

func TestParseRaw(t *testing.T) {
	got, err := parseRaw(strings.NewReader(rawProfile))
	if err != nil {
		t.Fatal(err)
	}
	want := []sample{
		{count: 3, nanos: 30000000, stack: []string{"sort.insertionSort_func", "sort.Slice", "repro/internal/nas.(*IS).Run"}},
		{count: 1, nanos: 10000000, stack: []string{"runtime.gcBgMarkWorker"}},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].count != want[i].count || got[i].nanos != want[i].nanos || !slices.Equal(got[i].stack, want[i].stack) {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := parseRaw(strings.NewReader("Samples:\n   1 10: 9\nLocations\n")); err == nil {
		t.Error("a sample naming an unknown location parsed")
	}
}

func TestOutermost(t *testing.T) {
	spans := []trace.PSpan{
		{Start: 10, Dur: 5},  // inside the first call
		{Start: 0, Dur: 20},  // a call
		{Start: 20, Dur: 10}, // the next call, back to back
		{Start: 22, Dur: 3},  // inside it
		{Start: 40, Dur: 1},
	}
	if got := outermost(spans); got != 31 {
		t.Errorf("outermost = %d, want 31", got)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to exactly the workloads and
// metrics the command prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: bad why", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the command runs %v", names, workloadNames)
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the command prints %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: bad direction %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bad bound", m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer(), false)
}

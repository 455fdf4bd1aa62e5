package main

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/imb"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/wrbench"
)

// call is one public entry point invocation of a workload pass.
type call struct {
	// name is the entry point ("nas.cg", "imb.SendRecv", ...); the
	// call span metric is call.<name>_s.
	name string
	// probe builds what the call builds before it simulates anything
	// (an mpi.World, or the wrbench rig's hosts) and returns it so the
	// set-up probe can keep it alive while it measures the live heap.
	// probeKey names the configuration: equal keys build equal things.
	probe    func() (any, error)
	probeKey string
	// run makes the call, recording into col when it is non-nil. It
	// returns the entry point's result unread: readback folds it into an
	// outcome after the call's timed window has closed.
	run func(col *trace.Collector) (readback func() outcome, err error)
	// commFromTrace marks entry points that return no mpiP: their
	// communication time comes from a traced run's outermost MPI spans.
	commFromTrace bool
	// untraceable marks a call whose trace does not fit in memory; the
	// per-layer passes run it untraced.
	untraceable bool
}

// outcome is what the benchmark reads back from one call.
type outcome struct {
	// makespan is the sweep registry's virt_ticks for the call.
	makespan simtime.Ticks
	// comm is the mpiP communication time over all ranks (zero when
	// the entry point returns no mpiP).
	comm simtime.Ticks
	// nodes are the per-host reports the entry point returns (nil when
	// it returns none).
	nodes []node.Stats
	// tierMigrates and tierRecomputes are KV decode's migrate-versus-
	// recompute outcomes (zero for every other entry point).
	tierMigrates, tierRecomputes int64
	// virt renders every virtual output the call returned; two passes
	// of one seed must render it identically.
	virt string
}

// mpiConfig is the job configuration the sweep registry runs the named
// strategy with.
func mpiConfig(m *machine.Machine, ranks int, strategy string, spec *faults.Spec) mpi.Config {
	s, ok := sweep.StrategyByName(strategy)
	if !ok {
		panic("perfbench: unknown strategy " + strategy)
	}
	rc := sweep.RunContext{Machine: m, Strategy: s, Spec: spec}
	return rc.MPIConfig(ranks)
}

// traced returns cfg recording into col (nil leaves tracing off).
func traced(cfg mpi.Config, col *trace.Collector) mpi.Config {
	cfg.Trace = col
	return cfg
}

func worldProbe(cfg mpi.Config) func() (any, error) {
	return func() (any, error) { return mpi.NewWorld(cfg) }
}

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"nas-fig6", "imb-ladder", "modern-tiered", "scale-1024"}

// buildWorkload returns the calls of one pass of the named workload.
// The seed feeds the fault-spec seed and the MoE/KV/halo routing; the
// NAS kernels generate their inputs from the NPB-defined constants, so
// nas-fig6 and scale-1024 run the same inputs under every seed.
func buildWorkload(name string, seed uint64) ([]call, error) {
	switch name {
	case "nas-fig6":
		return nasFig6(), nil
	case "imb-ladder":
		return imbLadder(faultSpec(seed)), nil
	case "modern-tiered":
		return modernTiered(seed), nil
	case "scale-1024":
		return scale1024(), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives an independent stream from the workload seed
// (splitmix64), so the fault schedule and the routing do not share one.
func subSeed(seed, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// faultSpec is imb-ladder's seeded fault schedule: the seed grid's
// forced ATT evictions and transient work-request errors.
func faultSpec(seed uint64) *faults.Spec {
	return &faults.Spec{Seed: subSeed(seed, 1), ATTEvictPeriod: 600, WRErrorPeriod: 300}
}

func nasCall(cfg mpi.Config, key string, k nas.Kernel) call {
	return call{
		name:     "nas." + k.Name(),
		probe:    worldProbe(cfg),
		probeKey: key,
		run: func(col *trace.Collector) (func() outcome, error) {
			res, err := nas.RunKernelConfig(traced(cfg, col), k)
			if err != nil {
				return nil, err
			}
			return func() outcome {
				return outcome{
					makespan: res.Makespan,
					comm:     res.Comm,
					nodes:    res.Nodes,
					virt:     fmt.Sprintf("%+v", res),
				}
			}, nil
		},
	}
}

// nasFig6 is the paper's Figure 6: the five NAS kernels at 4 ranks on
// the Opteron, libc versus hugepage placement, no faults.
func nasFig6() []call {
	var calls []call
	for _, s := range []string{"small-lazy", "huge-lazy"} {
		cfg := mpiConfig(machine.Opteron(), 4, s, nil)
		for _, k := range nas.All() {
			calls = append(calls, nasCall(cfg, "world/opteron/4/"+s, k))
		}
	}
	return calls
}

// imbSizes is the IMB ladder: eager, copy-pipeline and rendezvous
// messages, from cache-resident to re-registering sizes.
var imbSizes = []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

// imbLadder is Figure 5's fabric side: IMB SendRecv, PingPong and
// Exchange at 2 ranks under the registering (small) and the
// pin-down-cached strategies on all three machines, then the Figure 3/4
// work-request sweeps, all under a seeded fault schedule.
func imbLadder(spec *faults.Spec) []call {
	var calls []call
	for _, m := range machine.All() {
		for _, s := range []string{"small", "small-lazy", "huge-lazy"} {
			cfg := mpiConfig(m, 2, s, spec)
			key := "world/" + m.Name + "/2/" + s
			calls = append(calls,
				call{
					name: "imb.SendRecv", commFromTrace: true, probe: worldProbe(cfg), probeKey: key,
					run: func(col *trace.Collector) (func() outcome, error) {
						rs, nodes, err := imb.SendRecvNodeStats(traced(cfg, col), imbSizes)
						if err != nil {
							return nil, err
						}
						return func() outcome {
							var virt simtime.Ticks
							for _, r := range rs {
								virt += r.TicksPerIter * simtime.Ticks(r.Iters)
							}
							return outcome{makespan: virt, nodes: nodes,
								virt: fmt.Sprintf("%+v %+v", rs, nodes)}
						}, nil
					},
				},
				call{
					name: "imb.PingPong", commFromTrace: true, probe: worldProbe(cfg), probeKey: key,
					run: func(col *trace.Collector) (func() outcome, error) {
						rs, err := imb.PingPong(traced(cfg, col), imbSizes)
						if err != nil {
							return nil, err
						}
						return func() outcome {
							var virt simtime.Ticks
							for _, r := range rs {
								virt += r.LatencyTicks * simtime.Ticks(r.Iters)
							}
							return outcome{makespan: virt, virt: fmt.Sprintf("%+v", rs)}
						}, nil
					},
				},
				call{
					name: "imb.Exchange", commFromTrace: true, probe: worldProbe(cfg), probeKey: key,
					run: func(col *trace.Collector) (func() outcome, error) {
						rs, err := imb.Exchange(traced(cfg, col), imbSizes)
						if err != nil {
							return nil, err
						}
						return func() outcome {
							var virt simtime.Ticks
							for _, r := range rs {
								virt += r.TicksPerIter * simtime.Ticks(r.Iters)
							}
							return outcome{makespan: virt, virt: fmt.Sprintf("%+v", rs)}
						}, nil
					},
				})
		}
	}
	for _, m := range machine.All() {
		probe, key := rigProbe(m, spec)
		calls = append(calls,
			call{
				name: "wrbench.SGESweep", probe: probe, probeKey: key,
				run: func(col *trace.Collector) (func() outcome, error) {
					rs, nodes, err := wrbench.SGESweepTrace(m, []int{1, 2, 4, 8}, []int{64, 512, 4096}, spec, col)
					return wrOutcome(rs, nodes, err)
				},
			},
			call{
				name: "wrbench.OffsetSweep", probe: probe, probeKey: key,
				run: func(col *trace.Collector) (func() outcome, error) {
					rs, nodes, err := wrbench.OffsetSweepTrace(m, []int{0, 16, 32, 64, 96, 128}, []int{8, 64}, spec, col)
					return wrOutcome(rs, nodes, err)
				},
			})
	}
	return calls
}

// rigProbe builds the hosts a wrbench sweep builds: sender and receiver
// at half the default scramble depth, and the degradation-probe host.
func rigProbe(m *machine.Machine, spec *faults.Spec) (func() (any, error), string) {
	return func() (any, error) {
		var hosts []*node.Node
		for salt := uint64(0); salt < 2; salt++ {
			n, err := node.New(node.Config{Machine: m, ScrambleDepth: node.DefaultScramble / 2, Faults: spec, FaultSalt: salt})
			if err != nil {
				return nil, err
			}
			hosts = append(hosts, n)
		}
		n, err := node.New(node.Config{Machine: m, Allocator: node.AllocHuge, LazyDereg: true, Faults: spec, FaultSalt: 2})
		return append(hosts, n), err
	}, "rig/" + m.Name
}

// wrOutcome folds a work-request sweep like the registry's wrMetrics.
// The rig runs no MPI, so its communication time is zero.
func wrOutcome(rs []wrbench.Result, nodes []node.Stats, err error) (func() outcome, error) {
	if err != nil {
		return nil, err
	}
	return func() outcome {
		var virt simtime.Ticks
		for _, r := range rs {
			virt += r.Total()
		}
		return outcome{makespan: virt, nodes: nodes, virt: fmt.Sprintf("%+v %+v", rs, nodes)}
	}, nil
}

// modernRanks is modern-tiered's job size: 16 ranks, two MoE gating
// groups of eight.
const modernRanks = 16

// modernParams are the modern pack's default sizes with the routing
// (MoE gating, KV retrieval, halo field data) drawn from the seed.
func modernParams(seed uint64) (workload.MoEParams, workload.KVParams, workload.HaloParams) {
	moe := workload.DefaultMoEParams()
	moe.Seed = subSeed(seed, 2)
	kv := workload.DefaultKVParams()
	kv.Seed = subSeed(seed, 3)
	halo := workload.DefaultHaloParams()
	halo.Seed = subSeed(seed, 4)
	return moe, kv, halo
}

// modernTiered is the modern pack at 16 ranks on the Opteron under the
// two fixed lazy strategies and the adaptive policy engine.
func modernTiered(seed uint64) []call {
	moe, kv, halo := modernParams(seed)
	var calls []call
	for _, s := range []string{"small-lazy", "huge-lazy", "adaptive"} {
		cfg := mpiConfig(machine.Opteron(), modernRanks, s, nil)
		key := "world/opteron/16/" + s
		kvCfg := cfg
		kvCfg.Tiers = kv.Tiers() // RunKV sets this itself; the probe must too
		calls = append(calls,
			call{
				name: "workload.RunMoE", commFromTrace: true, probe: worldProbe(cfg), probeKey: key,
				run: func(col *trace.Collector) (func() outcome, error) {
					res, err := workload.RunMoE(traced(cfg, col), moe)
					if err != nil {
						return nil, err
					}
					return func() outcome {
						return outcome{makespan: res.Makespan, virt: fmt.Sprintf("%+v", *res)}
					}, nil
				},
			},
			call{
				name: "workload.RunKV", commFromTrace: true, probe: worldProbe(kvCfg), probeKey: key + "/tiered",
				run: func(col *trace.Collector) (func() outcome, error) {
					res, err := workload.RunKV(traced(cfg, col), kv)
					if err != nil {
						return nil, err
					}
					return func() outcome {
						return outcome{makespan: res.Makespan,
							tierMigrates: res.Migrations, tierRecomputes: res.Recomputes,
							virt: fmt.Sprintf("%+v", *res)}
					}, nil
				},
			},
			call{
				name: "workload.RunHalo", commFromTrace: true, probe: worldProbe(cfg), probeKey: key,
				run: func(col *trace.Collector) (func() outcome, error) {
					res, err := workload.RunHalo(traced(cfg, col), halo)
					if err != nil {
						return nil, err
					}
					return func() outcome {
						return outcome{makespan: res.Makespan, virt: fmt.Sprintf("%+v", *res)}
					}, nil
				},
			})
	}
	return calls
}

// scale1024 is the sweep registry's scale/cg: NAS CG at 32 unknowns per
// rank, 2 iterations, 1024 ranks, huge-lazy.
func scale1024() []call {
	const ranks = 1024
	cfg := mpiConfig(machine.Opteron(), ranks, "huge-lazy", nil)
	c := nasCall(cfg, "world/opteron/1024/huge-lazy", &nas.CG{N: 32 * ranks, Iters: 2})
	// O(ranks²) messages: the Perfetto rendering alone outgrows the
	// host's memory.
	c.untraceable = true
	return []call{c}
}

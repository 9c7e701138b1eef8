package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
	"cawa/internal/harness"
	"cawa/internal/obs/perf"
	"cawa/internal/stats"
	"cawa/internal/workloads"
)

// simSpec is one simulator workload. Scale 0.5 keeps a run near 3-4 s
// on a 2-core host while preserving each app's character: b+tree
// averages ~12.9 line transactions per memory instruction there, and
// strcltr_mid runs 512 warps at ~1.5 transactions with a ~93% L2 miss
// ratio.
type simSpec struct {
	app   string
	scale float64
	// parallel runs the per-SM domain engine with one goroutine per
	// CPU (at least 2, so the engine is engaged on a 1-CPU host) and
	// gates its statistics against a serial run of the same input.
	parallel bool
}

var simWorkloads = map[string]simSpec{
	"uncoalesced":     {app: "b+tree", scale: 0.5},
	"streaming":       {app: "strcltr_mid", scale: 0.5},
	"streaming-smpar": {app: "strcltr_mid", scale: 0.5, parallel: true},
}

const (
	// minSimRuns is the fewest measured runs a sim workload makes,
	// whatever the budget.
	minSimRuns = 3
	// setupsPerRun is how many extra set-ups (workloads.New + NewGPU,
	// then discarded) each measured run makes before its own. They
	// steady the setup_s median, which would otherwise rest on the few
	// measured runs alone, and spread over the run like this they see
	// the host's drift during the run as the measured runs do.
	setupsPerRun = 8
)

func (s simSpec) smWorkers() int {
	if !s.parallel {
		return 1
	}
	return max(2, runtime.NumCPU())
}

// simRun is one simulated run: a fresh workload and GPU, every launch,
// then Verify.
type simRun struct {
	newWL, newGPU        time.Duration // set-up
	next, launch, verify time.Duration // the timed part
	cycles               int64
	launches             int
	key                  string // statsKey of the run's statistics
	// agg is the run's merged statistics, kept on traced runs only:
	// held on every run, its per-warp records would grow the live heap,
	// and with it the GC's pace, from run to run.
	agg     *stats.Launch
	mallocs uint64       // traced runs only
	prof    *perf.Report // traced runs only
}

func (r *simRun) setup() time.Duration { return r.newWL + r.newGPU }
func (r *simRun) timed() time.Duration { return r.next + r.launch + r.verify }

// build is the set-up of one run.
func (s simSpec) build(seed int64, workers int) (workloads.Workload, *gpu.GPU, time.Duration, time.Duration, error) {
	t0 := time.Now()
	wl, err := workloads.New(s.app, workloads.Params{Scale: s.scale, Seed: seed})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	t1 := time.Now()
	g, err := core.CAWA().NewGPU(config.GTX480(), wl.Mem())
	if err != nil {
		return nil, nil, 0, 0, err
	}
	g.SMWorkers = workers
	return wl, g, t1.Sub(t0), time.Since(t1), nil
}

// simulate performs one run. A traced run attaches the engine's wall
// profiler and counts heap allocations around each Launch.
func (s simSpec) simulate(seed int64, workers int, traced bool) (*simRun, error) {
	wl, g, newWL, newGPU, err := s.build(seed, workers)
	if err != nil {
		return nil, err
	}
	r := &simRun{newWL: newWL, newGPU: newGPU}
	var prof *perf.Profiler
	if traced {
		prof = harness.NewWallProfiler(0)
		g.Perf = prof
	}
	var agg stats.Launch
	var ms runtime.MemStats
	ctx := context.Background()
	for {
		t := time.Now()
		k, ok := wl.Next()
		r.next += time.Since(t)
		if !ok {
			break
		}
		if traced {
			runtime.ReadMemStats(&ms)
		}
		before := ms.Mallocs
		t = time.Now()
		l, err := g.Launch(ctx, k)
		r.launch += time.Since(t)
		if err != nil {
			return nil, err
		}
		if traced {
			runtime.ReadMemStats(&ms)
			r.mallocs += ms.Mallocs - before
		}
		agg.Merge(l)
		r.launches++
	}
	t := time.Now()
	err = wl.Verify()
	r.verify = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	r.cycles = agg.Cycles
	r.key = statsKey(&agg, r.launches)
	if traced {
		r.agg = &agg
		r.prof = prof.Report()
	}
	return r, nil
}

// buckets sums the per-warp modelled cycle attribution.
type buckets struct {
	issue, sched, mem, alu, barrier, empty, divergent int64
}

func warpBuckets(agg *stats.Launch) buckets {
	var b buckets
	for i := range agg.Warps {
		w := &agg.Warps[i]
		b.issue += w.IssueCycles
		b.sched += w.SchedStall
		b.mem += w.MemStall
		b.alu += w.ALUStall
		b.barrier += w.BarrierStall
		b.empty += w.EmptyStall
		b.divergent += w.DivergentBranches
	}
	return b
}

// statsKey is the canonical text of the simulated statistics the exact
// gate compares: two runs of the same input on any engine must agree on
// every field.
func statsKey(agg *stats.Launch, launches int) string {
	b := warpBuckets(agg)
	return fmt.Sprintf("launches=%d cycles=%d warp_insts=%d thread_insts=%d l1d=%d/%d l2=%d/%d mem_instrs=%d mem_txns=%d warps=%d issue=%d sched=%d mem=%d alu=%d barrier=%d empty=%d divergent=%d",
		launches, agg.Cycles, agg.Instructions, agg.ThreadInstrs, agg.L1DAccesses, agg.L1DMisses,
		agg.L2Accesses, agg.L2Misses, agg.MemInstrs, agg.MemTxns, len(agg.Warps),
		b.issue, b.sched, b.mem, b.alu, b.barrier, b.empty, b.divergent)
}

func digest(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}

// exactGate holds the reference statistics every later run must match.
type exactGate struct{ want string }

// check reports whether key matches the reference, adopting key as the
// reference when none is set yet.
func (g *exactGate) check(key string) bool {
	if g.want == "" {
		g.want = key
		return true
	}
	return key == g.want
}

func runSim(spec simSpec, seed int64, budget time.Duration, traced bool) (*outcome, error) {
	workers := spec.smWorkers()
	out := &outcome{detail: map[string]any{
		"app": spec.app, "scale": spec.scale, "config": config.GTX480().Name,
		"system": core.CAWA().Label(), "sm_workers": workers,
	}}

	var setups []float64
	var gate exactGate
	if spec.parallel {
		// Reference: the same input on the serial engine, untimed.
		runtime.GC()
		out.ops.attempted++
		ref, err := spec.simulate(seed, 1, false)
		if err != nil {
			out.ops.fail("serial reference: %v", err)
		} else {
			gate.check(ref.key)
		}
	}

	var plain, tr []*simRun
	var latencies []float64
	fold := newCPUFold()
	minRuns := minSimRuns
	if traced {
		minRuns *= 2
	}
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < budget; i++ {
		for j := 0; j < setupsPerRun; j++ {
			runtime.GC()
			_, _, newWL, newGPU, err := spec.build(seed, workers)
			if err != nil {
				return nil, err
			}
			setups = append(setups, (newWL + newGPU).Seconds())
		}
		tracedRun := traced && i%2 == 1
		runtime.GC()
		var cpu bytes.Buffer
		if tracedRun {
			if err := pprof.StartCPUProfile(&cpu); err != nil {
				return nil, err
			}
		}
		out.ops.attempted++
		r, err := spec.simulate(seed, workers, tracedRun)
		if tracedRun {
			pprof.StopCPUProfile()
		}
		if err != nil {
			out.ops.fail("run %d: %v", i, err)
			continue
		}
		if !gate.check(r.key) {
			out.ops.fail("run %d: simulated statistics differ:\n got %s\nwant %s", i, r.key, gate.want)
			continue
		}
		setups = append(setups, r.setup().Seconds())
		if !tracedRun {
			plain = append(plain, r)
			latencies = append(latencies, (r.setup()+r.timed()).Seconds()*1e3)
			continue
		}
		tr = append(tr, r)
		if err := fold.add(cpu.Bytes()); err != nil {
			return nil, err
		}
		if out.profile == nil {
			out.profile = cpu.Bytes()
		}
	}
	if len(plain) == 0 || (traced && len(tr) == 0) {
		out.metrics = zeroMetrics(traced)
		return out, nil
	}

	out.detail["stats"] = gate.want
	out.detail["stats_digest"] = digest(gate.want)
	out.detail["setups"] = len(setups)
	out.detail["runs"] = len(plain)
	out.detail["traced_runs"] = len(tr)
	out.detail["run_rates"] = rates(plain)

	if !traced {
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		p50 := median(latencies)
		tl, pct := tail(latencies)
		out.detail["req_tail_pct"] = pct
		out.metrics = endToEnd(e2e{
			simCyclesPerS: median(rates(plain)),
			setupS:        median(setups),
			peakRSSMiB:    rss,
			reqPerS:       float64(len(latencies)) / (sum(latencies) / 1e3),
			reqP50ms:      p50,
			reqTailMs:     tl,
		})
		return out, nil
	}

	layer := emptyLayerMetrics()
	med := func(f func(r *simRun) float64) float64 {
		xs := make([]float64, len(tr))
		for i, r := range tr {
			xs[i] = f(r)
		}
		return median(xs)
	}
	sec := func(f func(r *simRun) time.Duration) float64 {
		return med(func(r *simRun) float64 { return f(r).Seconds() })
	}
	phase := func(name string) float64 {
		return med(func(r *simRun) float64 { return float64(r.prof.PhaseTotalNS(name)) / 1e9 })
	}
	first := tr[0]
	layer.set("workloads.new_s", sec(func(r *simRun) time.Duration { return r.newWL }))
	layer.set("workloads.next_s", sec(func(r *simRun) time.Duration { return r.next }))
	layer.set("workloads.verify_s", sec(func(r *simRun) time.Duration { return r.verify }))
	layer.set("core.new_gpu_s", sec(func(r *simRun) time.Duration { return r.newGPU }))
	layer.set("gpu.launch_s", sec(func(r *simRun) time.Duration { return r.launch }))
	layer.set("gpu.ns_per_sim_cycle", med(func(r *simRun) float64 {
		return float64(r.launch.Nanoseconds()) / float64(r.cycles)
	}))
	layer.set("gpu.allocs_per_kcycle", med(func(r *simRun) float64 {
		return float64(r.mallocs) * 1000 / float64(r.cycles)
	}))
	layer.set("gpu.dispatch_s", phase(perf.PhaseDispatch.String()))
	layer.set("gpu.fast_forward_s", phase(perf.PhaseFastForward.String()))
	layer.set("gpu.barrier_wait_s", phase(perf.PhaseBarrierWait.String()))
	layer.set("gpu.staged_commit_s", phase(perf.PhaseStagedCommit.String()))
	layer.set("gpu.barriers_per_kcycle", med(func(r *simRun) float64 { return r.prof.BarriersPerKcycle }))
	layer.set("gpu.shard_spread", med(func(r *simRun) float64 { return r.prof.Spread() }))
	layer.set("sm.step_s", phase(perf.PhaseDomainCompute.String()))
	layer.set("memsys.drain_s", phase(perf.PhaseMemsysDrain.String()))
	layer.modelled(first.agg, first.launches)
	layer.cpu(fold)
	layer.set("trace_overhead_frac", 1-median(rates(tr))/median(rates(plain)))
	out.detail["absent_phases"] = absentPhases(first.prof)
	out.metrics = layer.metrics
	return out, nil
}

func rates(runs []*simRun) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = float64(r.cycles) / r.timed().Seconds()
	}
	return xs
}

// absentPhases lists the engine phases a traced run never entered; the
// ledger reads them as 0.
func absentPhases(r *perf.Report) []string {
	var out []string
	for ph := perf.Phase(0); ph < perf.NumPhases; ph++ {
		if r.PhaseTotalNS(ph.String()) == 0 {
			out = append(out, ph.String())
		}
	}
	return out
}

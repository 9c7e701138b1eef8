package main

import (
	"fmt"

	"cawa/internal/stats"
)

// metricDef is a reported metric's name and unit. The two tables below
// are the benchmark's metric sets; BENCHMARK.json lists the same names
// and units (TestBenchmarkJSONMatchesTables).
type metricDef struct{ name, unit string }

// endToEndDefs are reported with -trace 0, all in host time. On the sim
// workloads a request is one whole simulated run (set-up, launches,
// Verify), made back to back by one client, so req_per_s is completed
// runs over the summed run latencies; on serve-mix a request is one
// POST /v1/run and req_per_s is completed requests over the rounds'
// summed wall time.
var endToEndDefs = []metricDef{
	{"sim_cycles_per_s", "cycles/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"req_per_s", "req/s"},
	{"req_p50_ms", "ms"},
	{"req_tail_ms", "ms"},
}

// layerDefs are reported with -trace 1. A layer a workload does not
// exercise reads 0 (the gpu/sm/memsys timings on serve-mix, the
// harness/serve counters on the sim workloads, the parallel-engine
// phases on the serial workloads).
var layerDefs = append([]metricDef{
	{"workloads.new_s", "s"},
	{"workloads.next_s", "s"},
	{"workloads.verify_s", "s"},
	{"core.new_gpu_s", "s"},
	{"gpu.launch_s", "s"},
	{"gpu.launches", "count"},
	{"gpu.sim_cycles", "cycles"},
	{"gpu.warp_insts", "count"},
	{"gpu.ns_per_sim_cycle", "ns/cycle"},
	{"gpu.allocs_per_kcycle", "allocs/kcycle"},
	{"gpu.dispatch_s", "s"},
	{"gpu.fast_forward_s", "s"},
	{"gpu.barrier_wait_s", "s"},
	{"gpu.staged_commit_s", "s"},
	{"gpu.barriers_per_kcycle", "1/kcycle"},
	{"gpu.shard_spread", "ratio"},
	{"sm.step_s", "s"},
	{"sm.issue_frac", "frac"},
	{"sm.mem_stall_frac", "frac"},
	{"sm.sched_stall_frac", "frac"},
	{"memsys.drain_s", "s"},
	{"memsys.l1d_accesses", "count"},
	{"memsys.l1d_miss_ratio", "frac"},
	{"memsys.l2_miss_ratio", "frac"},
	{"memsys.txns_per_mem_instr", "txns/instr"},
	{"harness.cache_hits", "count"},
	{"harness.cache_misses", "count"},
	{"harness.sim_s", "s"},
	{"serve.resp_bytes", "B"},
	{"serve.queue_wait_s", "s"},
	{"trace_overhead_frac", "frac"},
}, cpuDefs()...)

func cpuDefs() []metricDef {
	out := make([]metricDef, len(cpuPackages))
	for i, p := range cpuPackages {
		out[i] = metricDef{p + ".cpu_frac", "frac"}
	}
	return out
}

// e2e carries the end-to-end values of one run.
type e2e struct {
	simCyclesPerS, setupS, peakRSSMiB, reqPerS, reqP50ms, reqTailMs float64
}

func endToEnd(v e2e) map[string]metric {
	vals := []float64{v.simCyclesPerS, v.setupS, v.peakRSSMiB, v.reqPerS, v.reqP50ms, v.reqTailMs}
	out := make(map[string]metric, len(endToEndDefs))
	for i, d := range endToEndDefs {
		out[d.name] = metric{vals[i], d.unit}
	}
	return out
}

// zeroMetrics is the metric set of a run in which every operation
// failed: the failure count, not a figure, is the result.
func zeroMetrics(traced bool) map[string]metric {
	if traced {
		return emptyLayerMetrics().metrics
	}
	return endToEnd(e2e{})
}

// layerMetrics is the per-layer ledger under construction.
type layerMetrics struct{ metrics map[string]metric }

func emptyLayerMetrics() *layerMetrics {
	l := &layerMetrics{metrics: make(map[string]metric, len(layerDefs))}
	for _, d := range layerDefs {
		l.metrics[d.name] = metric{0, d.unit}
	}
	return l
}

func (l *layerMetrics) set(name string, v float64) {
	m, ok := l.metrics[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: undeclared layer metric %q", name))
	}
	m.Value = v
	l.metrics[name] = m
}

// modelled fills the exact, simulated-time counters from a run's
// aggregate statistics.
func (l *layerMetrics) modelled(agg *stats.Launch, launches int) {
	l.set("gpu.launches", float64(launches))
	l.set("gpu.sim_cycles", float64(agg.Cycles))
	l.set("gpu.warp_insts", float64(agg.Instructions))
	b := warpBuckets(agg)
	if total := b.issue + b.sched + b.mem + b.alu + b.barrier + b.empty; total > 0 {
		l.set("sm.issue_frac", float64(b.issue)/float64(total))
		l.set("sm.mem_stall_frac", float64(b.mem)/float64(total))
		l.set("sm.sched_stall_frac", float64(b.sched)/float64(total))
	}
	l.set("memsys.l1d_accesses", float64(agg.L1DAccesses))
	if agg.L1DAccesses > 0 {
		l.set("memsys.l1d_miss_ratio", float64(agg.L1DMisses)/float64(agg.L1DAccesses))
	}
	if agg.L2Accesses > 0 {
		l.set("memsys.l2_miss_ratio", float64(agg.L2Misses)/float64(agg.L2Accesses))
	}
	l.set("memsys.txns_per_mem_instr", agg.CoalescingFactor())
}

// cpu fills the <pkg>.cpu_frac shares.
func (l *layerMetrics) cpu(f *cpuFold) {
	for p, v := range f.fracs() {
		l.set(p+".cpu_frac", v)
	}
}

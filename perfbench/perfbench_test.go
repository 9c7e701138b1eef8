package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"cawa/internal/stats"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	v, pct := tail(xs)
	if v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}

	v, pct = tail(xs[:25]) // 100..76: index 14 of the sorted sample
	if v != 90 || pct != 60 {
		t.Fatalf("tail of 25 samples = %v at p%v, want 90 at p60", v, pct)
	}

	// Too few samples for any point above the median to have ten beyond.
	v, pct = tail([]float64{3, 1, 2})
	if v != 2 || pct != 50 {
		t.Fatalf("tail of 3 samples = %v at p%v, want the median 2 at p50", v, pct)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{5}, 5}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRequestStreamDeterministicAndSkewed(t *testing.T) {
	keys := len(serveKeys())
	a := requestStream(7, keys, serveRequests)
	if b := requestStream(7, keys, serveRequests); !slices.Equal(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if c := requestStream(8, keys, serveRequests); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
	var mix map[int]int
	for seed := int64(1); seed <= 10; seed++ {
		s := requestStream(seed, keys, serveRequests)
		if len(s) != serveRequests {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(s), serveRequests)
		}
		// Replay the stream against an empty cache: a key's first
		// request misses, every later one hits.
		count := make(map[int]int)
		lastMiss := 0
		for i, k := range s {
			if k < 0 || k >= keys {
				t.Fatalf("seed %d: key %d out of range [0,%d)", seed, k, keys)
			}
			if count[k] == 0 {
				lastMiss = i
			}
			count[k]++
		}
		hits := serveRequests - len(count)
		if share := float64(hits) / serveRequests; share < 0.85 || share > 0.95 {
			t.Errorf("seed %d: hit share %.3f (%d distinct keys), want 0.85-0.95", seed, share, len(count))
		}
		// Interleaved: misses are not confined to the stream's head.
		if lastMiss < serveRequests/4 {
			t.Errorf("seed %d: last miss at request %d, want misses spread through the stream", seed, lastMiss)
		}
		// Zipf(1) over 36 keys gives key 0 ~24% of requests, against
		// a uniform 2.8%, and popularity falls with the key's index.
		if count[0] < 4*serveRequests/keys || count[0] <= count[1] || count[1] <= count[keys-1] {
			t.Errorf("seed %d: keys 0, 1, %d requested %d, %d, %d times; want a stream skewed toward low indices",
				seed, keys-1, count[0], count[1], count[keys-1])
		}
		// The seed draws only the order: every seed serves the same
		// number of requests per key.
		if mix == nil {
			mix = count
		} else if !maps.Equal(mix, count) {
			t.Errorf("seed %d: requests per key %v, want seed 1's %v", seed, count, mix)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, defs := range [][]metricDef{endToEndDefs, layerDefs} {
		ms := make(map[string]metric)
		for _, d := range defs {
			if _, dup := ms[d.name]; dup {
				t.Errorf("metric %s declared twice", d.name)
			}
			ms[d.name] = metric{1, d.unit}
		}
		if err := checkNames(ms); err != nil {
			t.Error(err)
		}
	}
	if err := checkNames(map[string]metric{"bad name": {1, "s"}}); err == nil {
		t.Error("a name with a space passed the check")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's metric lists and
// perfbench's tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndDefs)
	same("per_layer", b.PerLayer, layerDefs)
	for _, w := range b.Workload {
		if _, ok := simWorkloads[w.Name]; !ok && w.Name != "serve-mix" {
			t.Errorf("BENCHMARK.json workload %s unknown to perfbench", w.Name)
		}
	}
}

func TestExactGateFlagsMismatch(t *testing.T) {
	agg := stats.Launch{Cycles: 1000, Instructions: 50, L1DAccesses: 40, L1DMisses: 10, L2Accesses: 10, L2Misses: 9,
		Warps: []stats.WarpRecord{{IssueCycles: 50, MemStall: 700, SchedStall: 250}}}
	var g exactGate
	if !g.check(statsKey(&agg, 1)) || !g.check(statsKey(&agg, 1)) {
		t.Fatal("identical statistics rejected")
	}
	for name, mutate := range map[string]func(l *stats.Launch){
		"l2 misses":   func(l *stats.Launch) { l.L2Misses++ },
		"cycles":      func(l *stats.Launch) { l.Cycles++ },
		"stall shift": func(l *stats.Launch) { l.Warps[0].MemStall--; l.Warps[0].SchedStall++ },
	} {
		bad := agg
		bad.Warps = slices.Clone(agg.Warps)
		mutate(&bad)
		if g.check(statsKey(&bad, 1)) {
			t.Errorf("injected %s mismatch passed the gate", name)
		}
	}

	bg := newBodyGate()
	body := []byte(`{"Agg":{"Cycles":1000}}`)
	if !bg.check(3, body) || !bg.check(3, slices.Clone(body)) {
		t.Fatal("identical bodies rejected")
	}
	if !bg.check(4, []byte(`{}`)) {
		t.Fatal("first body of another key rejected")
	}
	bad := slices.Clone(body)
	bad[len(bad)-3] = '1'
	if bg.check(3, bad) {
		t.Fatal("injected body mismatch passed the gate")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "cawa/internal/memsys.(*L1D).CanAccept", "cawa/internal/sm.(*SM).Step"}, "memsys"},
		{[]string{"cawa/internal/cache.(*Cache).Probe", "cawa/internal/memsys.(*L1D).CanAccept"}, "cache"},
		{[]string{"encoding/json.(*encodeState).marshal", "cawa/internal/serve.writeJSON"}, "serve"},
		{[]string{"cawa/internal/obs/perf.(*Profiler).ObservePhase", "cawa/internal/gpu.(*GPU).run"}, "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"syscall.Syscall", "net.(*conn).Read"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestCPUFoldReadsRuntimeProfile folds a real runtime/pprof profile.
func TestCPUFoldReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	if x == 0 {
		t.Fatal("spin loop optimised away")
	}
	f := newCPUFold()
	if err := f.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if f.total == 0 {
		t.Fatal("no CPU samples folded from a 300ms spin")
	}
	sum := 0.0
	for _, v := range f.fracs() {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("layer shares sum to %v, want 1", sum)
	}
	if err := f.add([]byte("not gzip")); err == nil {
		t.Fatal("a corrupt profile folded without error")
	}
}

// TestBodyGateSpansRounds drives real rounds through the service: a
// second round of the same workload seed passes the run's body gate,
// and a round whose simulations differ (here: another workload seed)
// fails it on every reply, although its own bodies agree with each
// other.
func TestBodyGateSpansRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	keys := serveKeys()[:2]
	bodies, err := requestBodies(keys)
	if err != nil {
		t.Fatal(err)
	}
	stream := []int{0, 1, 1, 0, 1}
	gate := newBodyGate()
	var allGate exactGate
	for i, seed := range []int64{1, 1, 2} {
		rd, err := serveRound(seed, keys, bodies, stream, gate, false)
		if err != nil {
			t.Fatal(err)
		}
		failed := len(stream) - rd.ok()
		same := allGate.check(statsKey(rd.all, rd.allLaunches))
		if i < 2 && (failed != 0 || !same) {
			t.Fatalf("round %d (seed %d): %d failed replies, statistics equal to round 0: %v; want 0 and true: %+v", i, seed, failed, same, rd.replies)
		}
		if i == 2 && (failed != len(stream) || same) {
			t.Fatalf("round %d (seed %d): %d failed replies, statistics equal to round 0: %v; want %d and false", i, seed, failed, same, len(stream))
		}
	}
}

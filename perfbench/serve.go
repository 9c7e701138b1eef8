package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cawa/internal/config"
	"cawa/internal/harness"
	"cawa/internal/serve"
	"cawa/internal/stats"
	"cawa/internal/workloads"
)

const (
	// serveScale keeps the 36-cell miss matrix of one round to a few
	// host seconds on 2 cores, so a run holds several rounds.
	serveScale = 0.05
	// serveRequests is one round's request count. Over 36 keys at
	// serveZipfS every key gets at least 2 requests, so a round
	// simulates all 36 and 364 of its 400 requests (91%) are
	// session-cache hits.
	serveRequests = 400
	// serveZipfS is the popularity skew: the key of rank k is requested
	// with weight 1/k^s. s = 1 is the classic Zipf law. The traffic is
	// synthetic: the repository holds no cawaserve request log, so no
	// exponent was fitted to observed load.
	serveZipfS = 1.0
	// minServeRounds is the fewest measured rounds, whatever the budget.
	minServeRounds = 2
	// setupsPerRound is how many extra start-ups (Session + Server +
	// httptest, then shut down) each round makes before it starts its
	// own service; spread over the run like this, they steady the
	// setup_s median against the host's drift during the run.
	setupsPerRound = 40
)

// serveSystems are the design points the request stream spans.
var serveSystems = []serve.RunRequest{
	{Scheduler: "lrr"},
	{Scheduler: "gto"},
	{Scheduler: "gcaws", CPL: true, CACP: true},
}

// serveKeys lists every (app, design point) a stream may request.
func serveKeys() []serve.RunRequest {
	var keys []serve.RunRequest
	for _, sys := range serveSystems {
		for _, app := range harness.PaperApps {
			sys.App = app
			keys = append(keys, sys)
		}
	}
	return keys
}

// requestStream returns n key indices in [0, keys) that follow a
// Zipf(serveZipfS) popularity law over the keys in catalogue order:
// key 0 (bfs on lrr) is the most popular, then the other apps' lrr
// baselines, then gto, then gcaws+CACP. Each key gets its exact share
// of the n requests (rounded by largest remainder), so every round
// serves the same mix, and the seed draws only the order. Drawing each
// request independently instead would let the share of large-body keys
// swing from round to round, and with it the latency median. Hits and
// misses interleave, so a hit may wait behind a simulation, as on a
// live service.
func requestStream(seed int64, keys, n int) []int {
	weight := make([]float64, keys)
	total := 0.0
	for k := range weight {
		weight[k] = 1 / math.Pow(float64(k+1), serveZipfS)
		total += weight[k]
	}
	quota := make([]int, keys)
	rest := make([]float64, keys)
	order := make([]int, keys)
	left := n
	for k := range quota {
		share := float64(n) * weight[k] / total
		quota[k] = int(share)
		rest[k] = share - float64(quota[k])
		left -= quota[k]
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return rest[order[i]] > rest[order[j]] })
	for _, k := range order[:left] {
		quota[k]++
	}
	s := make([]int, 0, n)
	for k, q := range quota {
		for range q {
			s = append(s, k)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// requestBodies returns the POST /v1/run body of each key.
func requestBodies(keys []serve.RunRequest) ([][]byte, error) {
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		b, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// bodyGate checks that every 200 body served for a key is byte-identical
// (by SHA-256) to the first one served for it in the run. One gate
// spans all of a run's rounds; each round starts a fresh session that
// simulates every requested key again, so a round whose simulations
// differ from an earlier round's fails here.
type bodyGate struct {
	mu    sync.Mutex
	first map[int][sha256.Size]byte
}

func newBodyGate() *bodyGate { return &bodyGate{first: make(map[int][sha256.Size]byte)} }

func (g *bodyGate) check(key int, body []byte) bool {
	sum := sha256.Sum256(body)
	g.mu.Lock()
	defer g.mu.Unlock()
	want, ok := g.first[key]
	if !ok {
		g.first[key] = sum
		return true
	}
	return sum == want
}

// reply is one request's outcome.
type reply struct {
	ms   float64
	size int
	err  string
}

// round is one fresh service driven through one request stream.
type round struct {
	setup, wall time.Duration
	replies     []reply
	// cycles sums the simulated cycles of the keys the stream
	// requested, that is, of the simulations made inside the timed
	// window.
	cycles int64
	// all merges the statistics of every key, read back after the
	// timed window; it is the same for every round of a run. runServe
	// keeps only its statsKey: held on every round, the merged per-warp
	// records would grow the live heap, and with it the GC's pace and
	// the latencies, from round to round.
	all          *stats.Launch
	allLaunches  int
	hits, misses uint64
	simS         float64
	queueWaitS   float64
	profile      []byte
}

func (r *round) ok() int {
	n := 0
	for _, rep := range r.replies {
		if rep.err == "" {
			n++
		}
	}
	return n
}

// startService builds the service one round drives.
func startService(seed int64, workers int) (*harness.Session, *serve.Server, *httptest.Server) {
	sess := harness.NewSession(config.Small(), workloads.Params{Scale: serveScale, Seed: seed}).SetWorkers(workers)
	srv := serve.New(serve.Config{Session: sess, Workers: workers})
	return sess, srv, httptest.NewServer(srv.Handler())
}

func stopService(srv *serve.Server, ts *httptest.Server) error {
	ts.Close()
	if err := srv.Drain(context.Background()); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// serveRound starts a service for the workload seed, sends the stream
// from a closed loop of one client per worker, and collects the
// service's own counters. bodies[i] is the request body for keys[i];
// gate is the run's body gate.
func serveRound(seed int64, keys []serve.RunRequest, bodies [][]byte, stream []int, gate *bodyGate, traced bool) (rd *round, err error) {
	workers := runtime.NumCPU()
	t0 := time.Now()
	sess, srv, ts := startService(seed, workers)
	rd = &round{setup: time.Since(t0), replies: make([]reply, len(stream))}
	defer func() {
		if serr := stopService(srv, ts); err == nil {
			err = serr
		}
	}()

	tr := &http.Transport{MaxIdleConnsPerHost: workers}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 120 * time.Second}

	var cpu bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		//cawalint:ignore load generator: clients only send and time requests; no simulated state depends on their order
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				rd.replies[i] = send(client, ts.URL, stream[i], bodies[stream[i]], gate)
			}
		}()
	}
	wg.Wait()
	rd.wall = time.Since(start)
	if traced {
		pprof.StopCPUProfile()
		rd.profile = cpu.Bytes()
	}

	rd.hits, rd.misses = sess.CacheStats()
	for _, t := range sess.Timings() {
		rd.simS += t.Seconds
	}
	if rd.queueWaitS, err = scrapeSum(client, ts.URL, "cawa_serve_queue_wait_seconds_sum"); err != nil {
		return nil, err
	}
	// Read every key back from the session, after the timed window: a
	// requested key is a cache hit, an unrequested one is simulated
	// here, so rd.all covers the same runs in every round.
	requested := make(map[int]bool, len(keys))
	for _, k := range stream {
		requested[k] = true
	}
	rd.all = new(stats.Launch)
	for i, k := range keys {
		res, err := sess.Run(k.App, k.System())
		if err != nil {
			return nil, fmt.Errorf("read back %s: %w", k.App, err)
		}
		rd.all.Merge(&res.Agg)
		rd.allLaunches += res.Launches
		if requested[i] {
			rd.cycles += res.Agg.Cycles
		}
	}
	return rd, nil
}

// send performs one request and checks its reply.
func send(client *http.Client, url string, key int, body []byte, gate *bodyGate) reply {
	t := time.Now()
	resp, err := client.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err.Error()}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := time.Since(t).Seconds() * 1e3
	switch {
	case err != nil:
		return reply{err: fmt.Sprintf("read body: %v", err)}
	case resp.StatusCode != http.StatusOK:
		return reply{err: fmt.Sprintf("status %d: %.200s", resp.StatusCode, data)}
	case !gate.check(key, data):
		return reply{err: fmt.Sprintf("key %d: body differs from the first served for it", key)}
	}
	return reply{ms: ms, size: len(data)}
}

// scrapeSum reads one un-labelled sample from the /metrics exposition.
func scrapeSum(client *http.Client, url, name string) (float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

func runServe(seed, streamSeed int64, budget time.Duration, traced bool) (*outcome, error) {
	keys := serveKeys()
	bodies, err := requestBodies(keys)
	if err != nil {
		return nil, err
	}
	out := &outcome{detail: map[string]any{
		"config": config.Small().Name, "scale": serveScale, "keys": len(keys),
		"requests_per_round": serveRequests, "zipf_s": serveZipfS,
		"clients": runtime.NumCPU(), "loop": "closed",
	}}

	// Every round serves the same workload seed, so every round
	// simulates the same cells and the gates compare them across
	// rounds; each round draws its own request stream.
	streamSeeds := rand.New(rand.NewSource(streamSeed))
	var roundSeeds []int64
	gate := newBodyGate()
	var allGate exactGate
	fold := newCPUFold()
	var setups []float64
	var plain, tr []*round
	var modelled *stats.Launch // every key's statistics, for the ledger
	var latencies []float64
	minRounds := minServeRounds
	if traced {
		minRounds *= 2
	}
	start := time.Now()
	// Round 0 warms the process up (heap, code paths, connections): it
	// passes every gate but no metric reads it.
	for i := 0; i <= minRounds || time.Since(start) < budget; i++ {
		for j := 0; j < setupsPerRound; j++ {
			runtime.GC()
			t := time.Now()
			_, srv, ts := startService(seed, runtime.NumCPU())
			setups = append(setups, time.Since(t).Seconds())
			if err := stopService(srv, ts); err != nil {
				return nil, err
			}
		}
		warmup := i == 0
		tracedRound := traced && i%2 == 0 && !warmup
		rs := streamSeeds.Int63()
		roundSeeds = append(roundSeeds, rs)
		stream := requestStream(rs, len(keys), serveRequests)
		runtime.GC()
		rd, err := serveRound(seed, keys, bodies, stream, gate, tracedRound)
		if err != nil {
			return nil, err
		}
		setups = append(setups, rd.setup.Seconds())
		for _, rep := range rd.replies {
			out.ops.attempted++
			if rep.err != "" {
				out.ops.fail("round %d: %s", i, rep.err)
			} else if !tracedRound && !warmup {
				latencies = append(latencies, rep.ms)
			}
		}
		// The read-back of every key is one more operation per round.
		out.ops.attempted++
		if key := statsKey(rd.all, rd.allLaunches); !allGate.check(key) {
			out.ops.fail("round %d: simulated statistics differ from round 0:\n got %s\nwant %s", i, key, allGate.want)
		}
		if tracedRound && modelled == nil {
			modelled = rd.all
		}
		rd.all = nil
		if warmup {
			continue
		}
		if !tracedRound {
			plain = append(plain, rd)
			continue
		}
		tr = append(tr, rd)
		if err := fold.add(rd.profile); err != nil {
			return nil, err
		}
		if out.profile == nil {
			out.profile = rd.profile
		}
	}
	out.detail["round_stream_seeds"] = roundSeeds
	out.detail["rounds"] = len(plain)
	out.detail["traced_rounds"] = len(tr)
	out.detail["setups"] = len(setups)
	out.detail["stats"] = allGate.want
	out.detail["stats_digest"] = digest(allGate.want)

	// rate pools a count over rounds: total count over total wall time.
	rate := func(rs []*round, f func(r *round) float64) float64 {
		var n, wall float64
		for _, r := range rs {
			n += f(r)
			wall += r.wall.Seconds()
		}
		return n / wall
	}
	cycles := func(r *round) float64 { return float64(r.cycles) }
	if !traced {
		if len(latencies) == 0 {
			out.metrics = zeroMetrics(false)
			return out, nil
		}
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		tl, pct := tail(latencies)
		out.detail["req_tail_pct"] = pct
		out.detail["requests_timed"] = len(latencies)
		out.metrics = endToEnd(e2e{
			simCyclesPerS: rate(plain, cycles),
			setupS:        median(setups),
			peakRSSMiB:    rss,
			reqPerS:       rate(plain, func(r *round) float64 { return float64(r.ok()) }),
			reqP50ms:      median(latencies),
			reqTailMs:     tl,
		})
		return out, nil
	}

	layer := emptyLayerMetrics()
	med := func(f func(r *round) float64) float64 {
		xs := make([]float64, len(tr))
		for i, r := range tr {
			xs[i] = f(r)
		}
		return median(xs)
	}
	var bytesServed, served float64
	for _, r := range tr {
		for _, rep := range r.replies {
			if rep.err == "" {
				bytesServed += float64(rep.size)
				served++
			}
		}
	}
	if served > 0 {
		layer.set("serve.resp_bytes", bytesServed/served)
	}
	layer.set("harness.cache_hits", med(func(r *round) float64 { return float64(r.hits) }))
	layer.set("harness.cache_misses", med(func(r *round) float64 { return float64(r.misses) }))
	layer.set("harness.sim_s", med(func(r *round) float64 { return r.simS }))
	layer.set("serve.queue_wait_s", med(func(r *round) float64 { return r.queueWaitS }))
	layer.modelled(modelled, tr[0].allLaunches)
	layer.cpu(fold)
	layer.set("trace_overhead_frac", 1-rate(tr, cycles)/rate(plain, cycles))
	out.metrics = layer.metrics
	return out, nil
}

// Command perfbench is the repository's benchmark. It runs one
// named workload for a fixed host-time budget and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures (host time, all
// measured with tracing off); with -trace 1 the run alternates untraced
// and traced operations and reports the per-layer ledger instead.
//
// Usage (from the repository root, see run.sh and BENCHMARK.json):
//
//	bash perfbench/run.sh --workload streaming --seed 7 --seconds 25 --trace 0
//
// Workloads (all on the full CAWA design point: gCAWS + CPL + CACP):
//
//	uncoalesced      b+tree on GTX480, serial engine: scattered loads,
//	                 ~12 line transactions per memory instruction, so
//	                 host time goes to L1 admission (cache probe, MSHRs)
//	streaming        strcltr_mid on GTX480, serial engine: well
//	                 coalesced, L2-missing stream, so host time goes to
//	                 SM scans, SIMT execution and the memsys drain
//	streaming-smpar  streaming on the parallel per-SM engine with one
//	                 domain goroutine per CPU; its simulated statistics
//	                 must equal a serial run's exactly
//	serve-mix        an in-process cawaserve behind httptest under a
//	                 closed loop of one client per CPU, over a seeded,
//	                 synthetic Zipf(1) request stream across 12 apps x
//	                 3 systems; hits and simulated misses interleave
//
// Every simulated run starts from a freshly built GPU, so the modelled
// caches start empty. The benchmark reports no accuracy figure: the
// repository holds no hardware reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the contract's last output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ops counts attempted and failed operations. An operation is one
// simulated run on the sim workloads and one HTTP request on serve-mix.
type ops struct {
	attempted, failed int
	errors            []string
}

// fail records a failed operation and keeps the first few reasons for
// the result file.
func (o *ops) fail(format string, args ...any) {
	o.failed++
	if len(o.errors) < 20 {
		o.errors = append(o.errors, fmt.Sprintf(format, args...))
	}
}

// outcome is what one workload run hands back to main.
type outcome struct {
	ops     ops
	metrics map[string]metric
	// detail is recorded in the result file next to the host stamp:
	// digests, sample counts, chosen tail percentile, sizes.
	detail map[string]any
	// profile is one traced operation's gzipped CPU profile, kept next
	// to the result file for `go tool pprof`.
	profile []byte
}

func main() {
	workload := flag.String("workload", "", "workload name: uncoalesced, streaming, streaming-smpar, serve-mix")
	seed := flag.Int64("seed", 1, "workload input seed")
	streamSeed := flag.Int64("stream-seed", -1, "serve-mix request-stream seed (-1: derive from -seed)")
	seconds := flag.Int("seconds", 25, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer ledger from a traced pass")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the result file")
	flag.Parse()

	if err := run(*workload, *seed, *streamSeed, *seconds, *trace, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed, streamSeed int64, seconds, trace int, outDir string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if streamSeed < 0 {
		streamSeed = seed
	}
	budget := time.Duration(seconds) * time.Second
	traced := trace == 1

	var out *outcome
	var err error
	cpuStart := readCPUTimes()
	if spec, ok := simWorkloads[workload]; ok {
		out, err = runSim(spec, seed, budget, traced)
	} else if workload == "serve-mix" {
		out, err = runServe(seed, streamSeed, budget, traced)
	} else {
		return fmt.Errorf("unknown -workload %q (have uncoalesced, streaming, streaming-smpar, serve-mix)", workload)
	}
	if err != nil {
		return err
	}
	// Steal is recorded, not corrected for: it marks a run made while
	// the hypervisor was giving this machine's CPUs to other guests.
	out.detail["steal_frac"] = stealFrac(cpuStart, readCPUTimes())
	if err := checkNames(out.metrics); err != nil {
		return err
	}
	if out.ops.attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", workload)
	}

	host := fingerprint()
	record := map[string]any{
		"workload":    workload,
		"seed":        seed,
		"stream_seed": streamSeed,
		"seconds":     seconds,
		"trace":       trace,
		"host":        host,
		"detail":      out.detail,
		"attempted":   out.ops.attempted,
		"failed":      out.ops.failed,
		"errors":      out.ops.errors,
		"metrics":     out.metrics,
	}
	path, err := writeRecord(outDir, workload, seed, trace, record, out.profile)
	if err != nil {
		return err
	}
	for _, e := range out.ops.errors {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", e)
	}
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s\n",
		host.CPU, host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.Commit, host.SourceSHA256)
	fmt.Printf("run: workload=%s seed=%d stream_seed=%d trace=%d record=%s\n", workload, seed, streamSeed, trace, path)
	for _, k := range []string{"stats_digest", "req_tail_pct"} {
		if v, ok := out.detail[k]; ok {
			fmt.Printf("%s: %v\n", k, v)
		}
	}
	line, err := json.Marshal(summary{
		Correct:   out.ops.failed == 0,
		Attempted: out.ops.attempted,
		Failed:    out.ops.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeRecord writes the full result file, and the CPU profile when
// there is one, and returns the result file's path.
func writeRecord(dir, workload string, seed int64, trace int, record map[string]any, profile []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace))
	if profile != nil {
		if err := os.WriteFile(stem+".cpu.pprof", profile, 0o644); err != nil {
			return "", fmt.Errorf("write cpu profile: %w", err)
		}
	}
	path := stem + ".json"
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("write result file: %w", err)
	}
	return path, nil
}

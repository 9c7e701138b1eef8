package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// host names the machine and the code a result came from, so that a
// number is only ever compared with one from the same host and code.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the VCS revision perfbench was built from ("unknown"
	// outside a git checkout); SourceSHA256 identifies the module's Go
	// sources either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func fingerprint() host {
	return host{
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceSHA256: sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceDigest hashes every go.mod and .go file under root, by path and
// content, skipping hidden directories (build outputs live there).
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTimes is the machine-wide /proc/stat CPU account, in clock ticks.
type cpuTimes struct{ busy, steal int64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	v := make([]int64, 8)
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealFrac is the share of the time the machine's CPUs wanted to run
// between a and b that the hypervisor gave to someone else.
func stealFrac(a, b cpuTimes) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal <= 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

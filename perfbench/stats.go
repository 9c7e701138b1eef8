package main

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// median returns the median of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least
// tailBeyond samples beyond it, and which percentile that is. With n
// samples that is the sorted sample at index n-tailBeyond-1, the
// (n-tailBeyond)/n percentile. When the sample is too small for that
// point to lie above the median (n < 2*tailBeyond), no tail is
// supported and the median is reported as percentile 50.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 2*tailBeyond {
		return median(xs), 50
	}
	s := sorted(xs)
	k := n - tailBeyond - 1
	return s[k], 100 * float64(k+1) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// metricName is the contract's name syntax.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames rejects a metric set the contract would refuse.
func checkNames(ms map[string]metric) error {
	for name, m := range ms {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
		if !metricUnit.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", name, m.Unit, metricUnit)
		}
	}
	return nil
}

var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the workload n times, each in a fresh process with the
// next seed, and prints every metric's median, quartiles and spread
// (interquartile range over median) — the figures the bounds in
// BENCHMARK.json are set from.
func repeatRuns(o options, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	failedShare := make(map[string]bool)
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(self, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: outputs failed the check", seed)
		}
		failedShare[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
		steal := ""
		for _, l := range lines {
			if bytes.HasPrefix(l, []byte("host steal")) {
				steal = "; " + string(l)
			}
		}
		fmt.Printf("seed %d: attempted %d failed %d%s\n ", seed, res.Attempted, res.Failed, steal)
		for _, name := range sortedKeys(res.Metrics) {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			fmt.Printf(" %s=%.4g", name, m.Value)
		}
		fmt.Println()
	}
	names := sortedKeys(values)
	fmt.Printf("%-34s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, name := range names {
		q := quartiles(values[name])
		spread := math.NaN()
		if q[1] != 0 {
			spread = (q[2] - q[0]) / math.Abs(q[1])
		}
		fmt.Printf("%-34s %12.4f %12.4f %12.4f %8.3f  %s\n", name, q[0], q[1], q[2], spread, units[name])
	}
	shares := make([]string, 0, len(failedShare))
	for s := range failedShare {
		shares = append(shares, s)
	}
	sort.Strings(shares)
	fmt.Printf("failed/attempted per run: %s\n", strings.Join(shares, " "))
	return nil
}

// quartiles returns Q1, median and Q3 by the method of Python's
// statistics.quantiles(values, n=4) (the default, "exclusive").
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var out [3]float64
	for i := range out {
		out[i] = interpolate(s, float64((i+1)*(len(s)+1))/4)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

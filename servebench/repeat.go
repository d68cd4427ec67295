package main

// Repeatability mode: run one workload N times on consecutive seeds and
// report, per end-to-end metric, the median, the quartiles and the spread
// (interquartile distance over the median) against the metric's bound in
// BENCHMARK.json. A metric whose spread is above a third of its bound is
// named as not steady. Runs that are not correct are named and left out of
// the figures, and make the mode exit non-zero.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchFile is the part of BENCHMARK.json repeatability needs.
type benchFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func repeatRuns(ctx context.Context, w workload, cfg config, n int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("repeat mode reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	values := make(map[string][]float64)
	var bad []int64
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		r, err := timedRun(ctx, w, c)
		if err != nil {
			return err
		}
		out := r.outcome()
		line, _ := json.Marshal(out)
		fmt.Printf("seed %d: %s\n", c.seed, line)
		if !out.Correct {
			bad = append(bad, c.seed)
			continue
		}
		for name, m := range out.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	if len(bad) == n {
		return fmt.Errorf("no run was correct")
	}
	var unsteady []string
	fmt.Printf("%-16s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, e := range bf.EndToEnd {
		xs := values[e.Name]
		if len(xs) == 0 {
			return fmt.Errorf("metric %s missing from the runs", e.Name)
		}
		q1, med, q3 := quartiles(xs)
		spread := (q3 - q1) / med
		mark := ""
		if spread > e.Bound/3 {
			mark = "  NOT STEADY"
			unsteady = append(unsteady, e.Name)
		}
		fmt.Printf("%-16s %12.4f %12.4f %12.4f %8.4f %8.4f%s\n", e.Name, med, q1, q3, spread, e.Bound, mark)
	}
	if len(unsteady) > 0 {
		fmt.Printf("not steady (spread above a third of the bound): %v\n", unsteady)
	} else {
		fmt.Println("every metric steady")
	}
	if len(bad) > 0 {
		return fmt.Errorf("runs not correct, left out of the figures above: seeds %v", bad)
	}
	return nil
}

// Command servebench is the serving benchmark: it boots the real
// prefcoverd binary, drives one workload over loopback HTTP, checks every
// answer, and prints one JSON result line.
//
//	servebench -daemon <prefcoverd> --workload hit --seed 1 --seconds 16 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate in-process
// traced replay. --repeat N runs the workload N times on consecutive
// seeds and reports each end-to-end metric's spread against its bound in
// BENCHMARK.json. run.sh builds both binaries and runs this one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is the result line.
type outcome struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type config struct {
	daemon  string
	workDir string
	seed    int64
	seconds int
	conns   int
}

func main() {
	var (
		daemonBin = flag.String("daemon", "", "path to the prefcoverd binary")
		workDir   = flag.String("workdir", ".bench_build/servebench", "directory the traced run writes its Chrome trace to")
		name      = flag.String("workload", "", "workload: hit, miss or ingest")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Int("seconds", 16, "open-loop length in seconds (fixes the operation counts)")
		traceRun  = flag.Int("trace", 0, "1 = report per-layer metrics from a traced in-process replay")
		repeat    = flag.Int("repeat", 0, "run the workload this many times on consecutive seeds and report each end-to-end metric's spread")
	)
	flag.Parse()
	if err := run(*daemonBin, *workDir, *name, *seed, *seconds, *traceRun, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(daemonBin, workDir, name string, seed int64, seconds, traceRun, repeat int) error {
	if daemonBin == "" {
		return errors.New("-daemon is required")
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	cfg := config{daemon: daemonBin, workDir: workDir, seed: seed, seconds: seconds, conns: runtime.NumCPU()}
	ctx := context.Background()
	if repeat > 0 {
		return repeatRuns(ctx, w, cfg, repeat)
	}
	var out *outcome
	if traceRun != 0 {
		out, err = tracedRun(ctx, w, cfg)
	} else {
		var r *runResult
		r, err = timedRun(ctx, w, cfg)
		if r != nil {
			out = r.outcome()
		}
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

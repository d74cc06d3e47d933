// Command perfbench is medshare's end-to-end benchmark. It hosts the
// whole program in its own process, drives one named workload in a
// closed loop for a fixed time, checks every output against a reference
// model computed apart from the program, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics measured through
// timing decorators around the interfaces between modules).
//
//	go -C perfbench run . --workload cascade --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --repeat N instead runs the workload N times (seeds seed..seed+N-1,
// each in a fresh process) and prints the median and quartiles of every
// metric. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// scenario is one benchmark workload on a rig.
type scenario interface {
	// setup builds the inputs from seed, registers and attaches the
	// shares, and warms every path up.
	setup(ctx context.Context, r *rig, seed int64) error
	// run drives the closed loop in whole rounds until the deadline has
	// passed (or, with maxRounds > 0, for exactly that many rounds per
	// client).
	run(ctx context.Context, m *meter, until time.Time, maxRounds int)
	// check compares the end state with the reference model and the
	// on-chain payload hashes.
	check(ctx context.Context) error
	// edge snapshots the serving edge's counters (zero without one).
	edge() edgeSnap
	stop()
}

// workloads maps a name to its constructor and data-channel transport.
var workloads = map[string]struct {
	make func() scenario
	tcp  bool
}{
	"cascade": {func() scenario { return &cascade{} }, true},
	"ingest":  {func() scenario { return &ingest{} }, false},
	"serve":   {func() scenario { return &serve{} }, false},
}

// setups is how many times a run sets up, to report the median set-up
// time; the last set-up is the one measured.
const setups = 7

// slack bounds everything in a run outside the measured window: the
// set-ups and the end-of-run check. A run that has not finished within
// the window plus slack is a hang and exits with an error.
const slack = 140 * time.Second

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	nodes    int
}

func main() {
	var o options
	var trace, repeat int
	flag.StringVar(&o.workload, "workload", "", "workload: cascade, ingest or serve")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's median and quartiles")
	flag.IntVar(&o.nodes, "nodes", 1, "PoA nodes (cascade only; more than 1 reproduces the multi-node commit race, see README.md)")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || o.nodes < 1 || o.nodes > 1 && o.workload != "cascade" {
		fmt.Fprintln(os.Stderr, "perfbench: --workload must be cascade, ingest or serve, --seconds at least 1, and --nodes 1 except on cascade")
		os.Exit(2)
	}
	if repeat > 0 {
		if err := repeatRuns(o, trace, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	// A hang must not outlive the run's time limit.
	deadline := time.Duration(o.seconds)*time.Second + slack
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %s\n", o.workload, deadline)
		os.Exit(1)
	})
	defer watchdog.Stop()

	out := bufio.NewWriter(os.Stdout)
	res, err := runOnce(context.Background(), o, out)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

// runOnce sets the workload up setups times, measures the last set-up
// for o.seconds, checks it and computes the metrics. Diagnostics go to
// out before the result.
func runOnce(ctx context.Context, o options, out *bufio.Writer) (result, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	spec := workloads[o.workload]
	var (
		r     *rig
		w     scenario
		setup []float64
	)
	for i := 0; i < setups; i++ {
		if r != nil {
			w.stop()
			r.stop()
		}
		// The previous set-up's garbage is not this set-up's cost.
		runtime.GC()
		start := time.Now()
		var err error
		if r, err = newRig(tr, spec.tcp, o.nodes); err != nil {
			return result{}, err
		}
		w = spec.make()
		if err := w.setup(ctx, r, o.seed); err != nil {
			w.stop()
			r.stop()
			return result{}, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer r.stop()
	defer w.stop()

	m := newMeter()
	tr.reset()
	a := take(r, w, true)
	w.run(ctx, m, a.at.Add(time.Duration(o.seconds)*time.Second), 0)
	b := take(r, w, false)
	checkErr := w.check(ctx)

	_, upAttempted, upFailed := m.class(classUpdate)
	_, rdAttempted, rdFailed := m.class(classRead)
	res := result{
		Correct:   checkErr == nil,
		Attempted: upAttempted + rdAttempted,
		Failed:    upFailed + rdFailed,
	}
	e2e := endToEnd(setup, m, a, b)
	if o.trace {
		res.Metrics = perLayer(tr, r, m, a, b)
		// Relative to the working directory: the checkout the benchmark runs in.
		path := fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", o.workload, o.seed)
		if err := tr.write(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	} else {
		res.Metrics = e2e
	}

	fmt.Fprintf(out, "workload %s seed %d: %.2fs measured, %d setups %v s, GOMAXPROCS %d\n",
		o.workload, o.seed, b.at.Sub(a.at).Seconds(), setups, round3(setup), runtime.GOMAXPROCS(0))
	m.report(out)
	fmt.Fprintf(out, "finalized share updates %d; finality from metadata fallback %d\n", m.updates, b.missed-a.missed)
	if a.stealTick >= 0 && b.stealTick >= 0 {
		fmt.Fprintf(out, "host steal time during the window: %d ticks\n", b.stealTick-a.stealTick)
	}
	if o.trace {
		// The traced run's end-to-end figures, for the tracing overhead.
		line, _ := json.Marshal(e2e)
		fmt.Fprintf(out, "traced end-to-end %s\n", line)
	}
	if checkErr != nil {
		fmt.Fprintf(out, "check failed: %v\n", checkErr)
	}
	return res, nil
}

func round3(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(int(x*1000+0.5)) / 1000
	}
	return out
}

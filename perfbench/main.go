// Command perfbench is the repository's benchmark. It drives the HAMS
// simulator only through its public inputs — api.JobSpec for the
// in-process workloads, HTTP for the hamsd service — under one of
// three seeded workloads, checks the outputs, and prints one JSON line:
// the end-to-end metrics with tracing off (-trace 0), or the per-layer
// ledger from a separate traced run (-trace 1).
//
// Run it through run.sh from the repository root, which builds this
// program and hamsd from source first:
//
//	bash perfbench/run.sh --workload colocate --seed 1 --seconds 20 --trace 0
//
// NOTES.md defines every metric and records which end-to-end metric
// each layer metric is expected to move, on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// setupRepeats is how many times a run performs its workload set-up;
// setup_s reports the median.
const setupRepeats = 5

// env is one invocation's configuration.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// build is the directory holding the hamsd binary; profiles and
	// daemon logs are written there too.
	build string
}

var workloads = map[string]func(env) (*ledger, error){
	"colocate": runColocate,
	"archive":  runArchive,
	"service":  runService,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: colocate, archive or service")
	seed := fs.Int64("seed", 1, "workload seed (same seed, same inputs)")
	seconds := fs.Float64("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	build := fs.String("build", ".bench_build", "directory holding the hamsd binary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload colocate|archive|service, -seconds > 0, -trace 0|1\n")
		return 2
	}
	e := env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		build:   *build,
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	r, err := run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := r.result(e.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	r.print(stdout)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line's schema.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger collects one run's metrics, operation tally and the notes
// printed ahead of the result line.
type ledger struct {
	tally
	values map[string]float64
	notes  []string
}

func newLedger() *ledger { return &ledger{values: make(map[string]float64)} }

func (r *ledger) set(name string, v float64) { r.values[name] = v }

func (r *ledger) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result assembles the JSON line: every end-to-end metric untraced,
// every per-layer metric traced. A per-layer metric the workload does
// not exercise reads 0; a missing end-to-end metric is an error.
func (r *ledger) result(traced bool) (output, error) {
	out := output{
		Correct:   r.checkFailures == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	if out.Attempted == 0 {
		return out, fmt.Errorf("no operation attempted")
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return out, fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// print writes the human-readable report: notes, findings, then every
// measured value with its unit.
func (r *ledger) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, f := range r.findings {
		fmt.Fprintf(w, "  FINDING: %s\n", f)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed (failed_frac %.4f), %d output checks failed\n",
		r.attempted, r.failed, r.failedFrac(), r.checkFailures)
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %-14.6g %s\n", n, r.values[n], unitOf(n))
	}
}

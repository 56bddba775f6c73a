// Command perfbench is the repository's benchmark of the /optimize service.
// It builds the service in process the way udao-server builds it by default,
// drives one workload against it over HTTP, checks every answer, and prints
// every metric by name with its unit. The last line of its output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload hit|cold|first-touch --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the same measurement for half the time and then a traced run, which sends
// the measured requests through the layers' public functions with a span
// around each call, and reports the per-layer metrics instead. The traced
// run's answers must equal the measured run's byte for byte.
//
//	perfbench --compare base.jsonl new.jsonl
//
// compares two sets of runs recorded with --out, refusing mixed cohorts.
//
// The benchmark is built and run from the root of a checkout by run.sh; its
// temporary state (run registry, calibration ledger) and span dumps stay
// under .bench_build there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/telemetry"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const stateRoot = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "hit, cold or first-touch")
	seed := fs.Int64("seed", 1, "seed of the request deck: order, weights and simulated outcomes")
	seconds := fs.Int("seconds", 10, "seconds the measurement runs")
	traceFlag := fs.Int("trace", 0, "1 adds the traced run and reports per-layer metrics")
	spansPath := fs.String("spans", "", "where the traced run writes its spans (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	outPath := fs.String("out", "", "append this run, stamped with its cohort, as one JSON line to this file")
	compareFlag := fs.Bool("compare", false, "compare two files written by --out: perfbench --compare base.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareFlag {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare needs two files")
			return 2
		}
		if err := compare(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	switch *workload {
	case "hit", "cold", "first-touch":
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want hit, cold or first-touch)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if *spansPath == "" {
		*spansPath = filepath.Join(stateRoot, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
	}
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	co := stampCohort(*seed)
	cb, _ := json.Marshal(co)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\ncohort %s\n", *workload, *seed, *seconds, *traceFlag, cb)

	e, setupS, err := setupRepeated(*workload, stateRoot)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 2
	}
	defer e.close()
	srv := httptest.NewServer(e.serve())
	defer srv.Close()
	conns := runtime.NumCPU()
	cl := newClient(srv.URL, conns)
	defer cl.close()

	dur := time.Duration(*seconds) * time.Second
	if *traceFlag == 1 {
		// The traced replay takes about as long as the measurement it
		// replays; halving both keeps a traced run as long as an untraced one.
		dur /= 2
	}
	r := &runner{workload: *workload, seed: *seed, dur: dur, conns: conns, env: e, cl: cl, out: stdout}
	m := r.measure()
	res := result{Metrics: r.endToEnd(m, setupS)}
	if *traceFlag == 1 {
		lm, err := r.traced(m, *spansPath)
		if err != nil {
			r.fail("traced run: %v", err)
			lm = map[string]metric{}
		}
		res.Metrics = lm
	}
	res.Attempted, res.Failed = m.attempted, m.failed
	res.Correct = len(r.problems) == 0 && m.failed == 0
	for _, p := range r.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	if *outPath != "" {
		if err := appendRecord(*outPath, record{Cohort: co, Workload: *workload, Seconds: *seconds, Trace: *traceFlag, Result: res}); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		// A NaN metric cannot be printed as JSON; name it rather than print
		// a result the reader cannot parse.
		fmt.Fprintln(stderr, "perfbench: result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runner holds one workload's run.
type runner struct {
	workload string
	seed     int64
	dur      time.Duration
	conns    int
	env      *env
	cl       *client
	out      io.Writer
	// problems are failed checks beyond single responses: counts that must
	// read a fixed value on this workload, traced answers that differ.
	problems []string
}

func (r *runner) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runner) printf(format string, args ...any) { fmt.Fprintf(r.out, format, args...) }

// report prints one metric line and adds it to ms.
func (r *runner) report(ms map[string]metric, name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	r.printf("%-26s %14.6g %s%s\n", name, v, unit, note)
	if ms != nil {
		ms[name] = metric{Value: v, Unit: unit}
	}
}

func counterDelta(before, after telemetry.Snapshot, name string) uint64 {
	return after.Counters[name] - before.Counters[name]
}

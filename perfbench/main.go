// Command perfbench is the repository's campaign benchmark: host cost per
// simulated day on the paper's fig8 campaign, the saturated growth
// campaign, and a long-horizon public serving edge, split by kernel label.
//
// One run measures one workload in this single-threaded process:
//
//	perfbench --workload fig8 --seed 3 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// attaches the benchmark's own sim.Probe, times every handler, and
// reports the per-layer split. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Other modes: -manifest prints BENCHMARK.json, -record rewrites the
// outcome reference, and -report N runs every workload N times in child
// processes and prints each metric's median, quartiles and spread next
// to its bound. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		wname      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed       = flag.Int64("seed", 0, "input seed (0 is the reference scenario)")
		seconds    = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace      = flag.Int("trace", 0, "1 runs the traced (per-layer) run instead of the end-to-end one")
		doManifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		recordTo   = flag.String("record", "", "rewrite the outcome reference at this path and exit")
		reportRuns = flag.Int("report", 0, "run every workload this many times (seeds 1..N) and print the steadiness report")
	)
	flag.Parse()
	runtime.GOMAXPROCS(1)

	var err error
	switch {
	case *doManifest:
		var out []byte
		if out, err = manifest(); err == nil {
			_, err = os.Stdout.Write(out)
		}
	case *recordTo != "":
		err = record(*recordTo)
	case *reportRuns > 0:
		err = report(*reportRuns, *seconds)
	default:
		err = runWorkload(*wname, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(name string, seed int64, seconds float64, trace int) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	var values map[string]float64
	var v verdict
	if trace == 1 {
		values, v, err = tracedRun(w, seed, seconds, ref)
	} else {
		values, v, err = untracedRun(w, seed, seconds, ref)
	}
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, p := range v.problems {
		if !seen[p] {
			seen[p] = true
			fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
		}
	}
	table := endToEnd
	if trace == 1 {
		table = perLayer
	}
	res := result{Correct: v.failed == 0, Attempted: max(v.attempted, 1), Failed: v.failed,
		Metrics: make(map[string]metricValue, len(table))}
	for _, m := range table {
		val, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: val, Unit: m.Unit}
		fmt.Fprintf(os.Stderr, "  %-26s %14s %s\n", m.Name, fmtMetric(val), m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metric declares one reported figure. The table below is the single
// source of BENCHMARK.json (see -manifest).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are measured on untraced runs (--trace 0).
var endToEnd = []metric{
	{"cpu_ms_per_sim_day", "ms/day", "lower", 0.15},
	{"wall_s", "s", "lower", 0.15},
	{"day_step_ms_p50", "ms", "lower", 0.2},
	{"day_step_ms_tail", "ms", "lower", 0.25},
	{"allocs_per_sim_day", "count/day", "lower", 0.05},
	{"alloc_mb_per_sim_day", "MB/day", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer come from the traced run (--trace 1); the layer is the kernel
// scheduling label (sim.Scope) that owns the events.
var perLayer = []metric{
	{"sim.fired_per_sim_day", "count/day", "lower", 0},
	{"sim.cancelled_per_sim_day", "count/day", "lower", 0},
	{"sim.events_per_cpu_s", "1/s", "higher", 0},
	{"sim.peak_pending", "count", "lower", 0},
	{"sim.untagged", "count", "lower", 0},
	{"ps.fired", "count", "lower", 0},
	{"ps.cancelled", "count", "lower", 0},
	{"ps.cancel_per_fire", "ratio", "lower", 0},
	{"ps.self_ms", "ms", "lower", 0},
	{"ps.share", "ratio", "lower", 0},
	{"workflow.fired", "count", "lower", 0},
	{"workflow.self_ms", "ms", "lower", 0},
	{"workflow.share", "ratio", "lower", 0},
	{"vfs.files", "count", "lower", 0},
	{"vfs.dirs", "count", "lower", 0},
	{"vfs.size_ns", "ns", "lower", 0},
	{"vfs.walk_ms", "ms", "lower", 0},
	{"netsim.fired", "count", "lower", 0},
	{"netsim.self_ms", "ms", "lower", 0},
	{"netsim.self_us_per_tick", "us", "lower", 0},
	{"netsim.bytes_moved", "bytes", "lower", 0},
	{"factory.fired", "count", "lower", 0},
	{"factory.self_ms", "ms", "lower", 0},
	{"serving.self_ms", "ms", "lower", 0},
	{"serving.load_self_ms", "ms", "lower", 0},
	{"serving.requests", "count", "higher", 0},
	{"serving.renders", "count", "lower", 0},
	{"serving.guard_checks", "count", "lower", 0},
	{"outcome.failed_ops_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 30

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{l.Name, l.Unit, l.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ---- order statistics ----

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how the spread of a set of runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tail is the highest order statistic with at least ten samples above it
// (the step times' tail percentile) and the percentile it stands for.
func tail(xs []float64) (value, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func fmtMetric(v float64) string { return fmt.Sprintf("%.6g", v) }

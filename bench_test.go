// Package repro_test benchmarks every experiment in the paper's
// evaluation (one benchmark per figure and in-text result) plus ablations
// of the design choices DESIGN.md calls out. Domain results — end-to-end
// seconds, hump peaks, moved-run counts — are attached to each benchmark
// via b.ReportMetric, so `go test -bench . -benchmem` regenerates the
// paper's numbers alongside the harness costs.
package repro_test

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/experiments"
	"repro/internal/factory"
	"repro/internal/forecast"
	"repro/internal/ondemand"
	"repro/internal/telemetry"
)

// reportComparisons attaches an experiment's paper-vs-measured rows as
// benchmark metrics.
func reportComparisons(b *testing.B, r experiments.Report) {
	b.Helper()
	for i, c := range r.Comparisons {
		b.ReportMetric(c.Measured, fmt.Sprintf("m%d_%s", i, metricUnit(c.Unit)))
	}
}

func metricUnit(unit string) string {
	if unit == "" {
		return "value"
	}
	return unit
}

// BenchmarkFig6 regenerates Figure 6 (Architecture 1 data availability).
func BenchmarkFig6(b *testing.B) {
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Fig6()
	}
	reportComparisons(b, r)
}

// BenchmarkFig7 regenerates Figure 7 (Architecture 2 data availability).
func BenchmarkFig7(b *testing.B) {
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7()
	}
	reportComparisons(b, r)
}

// BenchmarkFig8 regenerates Figure 8 (Tillamook walltime by day).
func BenchmarkFig8(b *testing.B) {
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Fig8()
	}
	reportComparisons(b, r)
}

// BenchmarkFig9 regenerates Figure 9 (dev-forecast walltime by day).
func BenchmarkFig9(b *testing.B) {
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9()
	}
	reportComparisons(b, r)
}

// BenchmarkEndToEnd regenerates the §4.2 18,000 s vs 11,000 s comparison.
func BenchmarkEndToEnd(b *testing.B) {
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.EndToEnd()
	}
	reportComparisons(b, r)
}

// BenchmarkConcurrentProducts regenerates the §4.2 four-concurrent-sets
// result (≈ +3,000 s).
func BenchmarkConcurrentProducts(b *testing.B) {
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.ConcurrentProducts()
	}
	reportComparisons(b, r)
}

// BenchmarkBandwidthShare regenerates the §4.2 ≈20% product-volume share.
func BenchmarkBandwidthShare(b *testing.B) {
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.BandwidthShare()
	}
	reportComparisons(b, r)
}

// BenchmarkPredictor regenerates the §4.1 CPU-sharing validation.
func BenchmarkPredictor(b *testing.B) {
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.PredictorValidation()
	}
	reportComparisons(b, r)
}

// BenchmarkEstimator regenerates the §4.3.2 estimation-accuracy result.
func BenchmarkEstimator(b *testing.B) {
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.EstimatorValidation()
	}
	reportComparisons(b, r)
}

// --- Ablations ---

// BenchmarkPackHeuristics compares the assignment heuristics on the
// paper-scale plant (makespan in seconds as the domain metric).
func BenchmarkPackHeuristics(b *testing.B) {
	nodes := make([]core.NodeInfo, 6)
	for i := range nodes {
		nodes[i] = core.NodeInfo{Name: fmt.Sprintf("fnode%02d", i+1), CPUs: 2, Speed: 1}
	}
	runs := make([]core.Run, 10)
	for i := range runs {
		runs[i] = core.Run{
			Name:     fmt.Sprintf("forecast-%02d", i+1),
			Work:     15000 + float64(i%7)*6000,
			Start:    7200 + float64(i%5)*1800,
			Deadline: 86400,
			Priority: 1 + i%9,
			PrevNode: nodes[i%len(nodes)].Name,
		}
	}
	for _, h := range []core.Heuristic{core.StayPut, core.FirstFitDecreasing, core.BestFitDecreasing, core.WorstFitDecreasing} {
		b.Run(h.String(), func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				s, err := core.BuildSchedule(nodes, runs, core.ScheduleOptions{Heuristic: h})
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.Prediction.Makespan()
			}
			b.ReportMetric(makespan, "makespan_s")
		})
	}
}

// BenchmarkReschedulePolicies compares disruption (runs moved) and
// makespan of the two failure-response policies.
func BenchmarkReschedulePolicies(b *testing.B) {
	nodes := make([]core.NodeInfo, 6)
	for i := range nodes {
		nodes[i] = core.NodeInfo{Name: fmt.Sprintf("fnode%02d", i+1), CPUs: 2, Speed: 1}
	}
	runs := make([]core.Run, 12)
	for i := range runs {
		runs[i] = core.Run{
			Name:     fmt.Sprintf("forecast-%02d", i+1),
			Work:     15000 + float64(i%7)*6000,
			Deadline: 86400,
			PrevNode: nodes[i%len(nodes)].Name,
		}
	}
	base, err := core.BuildSchedule(nodes, runs, core.ScheduleOptions{Heuristic: core.StayPut})
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []core.ReschedulePolicy{core.MinimalMove, core.FullReshuffle} {
		b.Run(pol.String(), func(b *testing.B) {
			var moved int
			var makespan float64
			for i := 0; i < b.N; i++ {
				after, err := core.RescheduleAfterFailure(base, "fnode01", pol, core.WorstFitDecreasing)
				if err != nil {
					b.Fatal(err)
				}
				moved = len(core.MovedRuns(base, after))
				makespan = after.Prediction.Makespan()
			}
			b.ReportMetric(float64(moved), "runs_moved")
			b.ReportMetric(makespan, "makespan_s")
		})
	}
}

// BenchmarkRsyncInterval sweeps the rsync scan interval: coarser scans
// save scan overhead but delay data availability at the server.
func BenchmarkRsyncInterval(b *testing.B) {
	for _, interval := range []float64{60, 300, 900, 1800} {
		b.Run(fmt.Sprintf("%.0fs", interval), func(b *testing.B) {
			var end float64
			for i := 0; i < b.N; i++ {
				res := dataflow.Run(dataflow.Architecture2, dataflow.Params{RsyncInterval: interval})
				end = res.EndToEnd
			}
			b.ReportMetric(end, "end_to_end_s")
		})
	}
}

// BenchmarkProductWorkers sweeps the master process's concurrency at a
// four-CPU server under a heavy (6×) product load: one worker can only
// use one CPU, so extra workers shorten the product tail. (On the paper's
// single-CPU server, workers change nothing — the CPU is the bottleneck —
// which is why this ablation pairs a bigger server with a bigger load.)
func BenchmarkProductWorkers(b *testing.B) {
	spec := forecast.ReplicateProducts(forecast.DataflowForecast(), 6)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var end float64
			for i := 0; i < b.N; i++ {
				res := dataflow.Run(dataflow.Architecture2, dataflow.Params{
					Spec:       spec,
					Workers:    workers,
					ServerCPUs: 4,
				})
				end = res.EndToEnd
			}
			b.ReportMetric(end, "end_to_end_s")
		})
	}
}

// BenchmarkPartitionedProducts compares Architecture 3 (k secondary
// product nodes) against Architecture 2 at today's and 4× product loads —
// the §2.2 regime study.
func BenchmarkPartitionedProducts(b *testing.B) {
	heavy := forecast.ReplicateProducts(forecast.DataflowForecast(), 4)
	cases := []struct {
		name string
		run  func() dataflow.Result
	}{
		{"arch2-today", func() dataflow.Result { return dataflow.Run(dataflow.Architecture2, dataflow.Params{}) }},
		{"arch3-k4-today", func() dataflow.Result { return dataflow.RunPartitioned(dataflow.Params{}, 4) }},
		{"arch2-4x-load", func() dataflow.Result {
			return dataflow.Run(dataflow.Architecture2, dataflow.Params{Spec: heavy, Workers: 4})
		}},
		{"arch3-k4-4x-load", func() dataflow.Result {
			return dataflow.RunPartitioned(dataflow.Params{Spec: heavy, Workers: 4}, 4)
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var res dataflow.Result
			for i := 0; i < b.N; i++ {
				res = tc.run()
			}
			b.ReportMetric(res.RunWalltime, "run_walltime_s")
			b.ReportMetric(res.BytesOverLink/1e6, "MB_over_lan")
		})
	}
}

// BenchmarkOnDemandPolicies compares admission policies for made-to-order
// products (§5 future work): stock lateness and request latency.
func BenchmarkOnDemandPolicies(b *testing.B) {
	nodes := []core.NodeInfo{
		{Name: "n1", CPUs: 2, Speed: 1},
		{Name: "n2", CPUs: 2, Speed: 1},
	}
	stock := []core.Run{
		{Name: "s1", Work: 80000, Start: 3600, Deadline: 86400},
		{Name: "s2", Work: 80000, Start: 3600, Deadline: 86400},
		{Name: "s3", Work: 80000, Start: 3600, Deadline: 86400},
		{Name: "s4", Work: 80000, Start: 3600, Deadline: 86400},
	}
	assign := map[string]string{"s1": "n1", "s2": "n1", "s3": "n2", "s4": "n2"}
	var requests []ondemand.Request
	for i := 0; i < 8; i++ {
		requests = append(requests, ondemand.Request{
			ID:      fmt.Sprintf("r%d", i),
			Arrival: 18000 + float64(i)*2400,
			Work:    15000,
		})
	}
	for _, pol := range []ondemand.Policy{ondemand.GreedyPolicy{}, ondemand.DeadlineAwarePolicy{}} {
		b.Run(pol.String(), func(b *testing.B) {
			var res ondemand.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = ondemand.Run(ondemand.Config{
					Nodes: nodes, Stock: stock, Assign: assign,
					Requests: requests, Policy: pol,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.StockLate)), "stock_late")
			b.ReportMetric(res.MeanLatency(), "mean_latency_s")
		})
	}
}

// paperScaleConfig builds the paper-scale campaign (10 forecasts, 6
// nodes) used by the campaign-cost and telemetry-overhead benchmarks.
func paperScaleConfig(days int, tel *telemetry.Telemetry) factory.Config {
	specs := []*forecast.Spec{
		forecast.Tillamook(),
		forecast.NewSpec("forecast-columbia", "columbia", 5760, 28000, 8),
		forecast.NewSpec("forecast-yaquina", "yaquina", 4320, 20000, 6),
		forecast.NewSpec("forecast-newport", "newport", 4320, 18000, 6),
		forecast.NewSpec("forecast-coos-bay", "coos-bay", 3600, 18000, 6),
		forecast.NewSpec("forecast-willapa", "willapa", 3600, 16000, 6),
		forecast.NewSpec("forecast-grays", "grays-harbor", 2880, 16000, 4),
		forecast.NewSpec("forecast-nehalem", "nehalem", 2880, 14000, 4),
		forecast.NewSpec("forecast-umpqua", "umpqua", 2880, 12000, 4),
		forecast.Dev(),
	}
	nodes := factory.DefaultNodes()
	assignments := make([]factory.Assignment, len(specs))
	for i, s := range specs {
		assignments[i] = factory.Assignment{Spec: s, Node: nodes[i%len(nodes)].Name}
	}
	return factory.Config{Days: days, Nodes: nodes, Forecasts: assignments, Telemetry: tel}
}

// runCampaign executes one campaign and returns nothing; shared by the
// benchmark and the overhead test.
func runCampaign(tb testing.TB, days int, tel *telemetry.Telemetry) {
	c, err := factory.New(paperScaleConfig(days, tel))
	if err != nil {
		tb.Fatal(err)
	}
	c.Run()
}

// BenchmarkCampaignDay measures the simulator's cost per factory day at
// the paper's scale (10 forecasts, 6 nodes).
func BenchmarkCampaignDay(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCampaign(b, 5, nil)
	}
	b.ReportMetric(5, "virtual_days")
}

// BenchmarkCampaignDayTelemetry measures the same campaign with full
// metric and span collection on; compare against BenchmarkCampaignDay for
// the exact overhead ratio on this machine.
func BenchmarkCampaignDayTelemetry(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCampaign(b, 5, telemetry.New())
	}
	b.ReportMetric(5, "virtual_days")
}

// TestTelemetryOverhead guards the design target that full collection
// (nil-safe cached instruments, one span per task) costs on the order of
// 5% of a campaign. The two arms are interleaved in alternating order and
// timed by process CPU (rusage), each from a collected heap, and the
// minimum of N runs per arm is compared against a bound of 25%, so a
// loaded machine slows both arms alike instead of flaking the suite. Run
// the two CampaignDay benchmarks for the precise ratio.
func TestTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	const rounds = 5
	cpuSeconds := func() float64 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return float64(ru.Utime.Sec+ru.Stime.Sec) +
			float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	timed := func(instrument bool) float64 {
		runtime.GC()
		t0 := cpuSeconds()
		var tel *telemetry.Telemetry
		if instrument {
			tel = telemetry.New()
		}
		runCampaign(t, 3, tel)
		return cpuSeconds() - t0
	}
	// The campaign is single-threaded. With a spare P the runtime's idle
	// GC mark workers burn otherwise idle CPU, which rusage would charge
	// to whichever arm collects more often; one P keeps the process CPU
	// to the work the campaign itself does, mutator and collector both.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Warm up both variants so allocator state is comparable.
	runCampaign(t, 1, nil)
	runCampaign(t, 1, telemetry.New())

	baseline, instrumented := math.Inf(1), math.Inf(1)
	for i := 0; i < rounds; i++ {
		var base, inst float64
		if i%2 == 0 {
			base = timed(false)
			inst = timed(true)
		} else {
			inst = timed(true)
			base = timed(false)
		}
		baseline = math.Min(baseline, base)
		instrumented = math.Min(instrumented, inst)
	}
	ratio := instrumented / baseline
	t.Logf("baseline %.3fs CPU, instrumented %.3fs CPU, ratio %.3f", baseline, instrumented, ratio)
	if ratio > 1.25 {
		t.Fatalf("telemetry overhead ratio %.3f exceeds bound 1.25 (baseline %.3fs, instrumented %.3fs CPU)",
			ratio, baseline, instrumented)
	}
}

package forensics

import (
	"testing"

	"repro/internal/benchkit"
	"repro/internal/benchkit/replay"
)

// analyzedReplay runs the shared campaign replay, traced like the
// factory, and when analyze is true follows it with a full forensics
// pass (Analyze over the trace and the live sampler) against a plan of
// 3000 s per run and a 7200 s deadline. The delta against analyze=false
// is what the 5% budget bounds. Returns the number of analyzed runs.
func analyzedReplay(analyze bool) int {
	if !analyze {
		replay.Run(replay.Options{Trace: true})
		return 0
	}
	var plan []PlanEntry
	res := replay.Run(replay.Options{Trace: true, OnRun: func(r replay.Record) {
		plan = append(plan, PlanEntry{
			Forecast: r.Forecast, Day: r.Day, Node: r.Node,
			Start: r.Start, End: r.Start + 3000, Deadline: r.Start + 7200,
		})
	}})
	// The live pass queries the sampler in place — no sample export.
	rep, err := Analyze(Input{Spans: res.Tracer.Spans(), Plan: plan, Timeline: res.Sampler})
	if err != nil {
		panic(err)
	}
	return len(rep.Runs)
}

// BenchmarkReplayBaseline is the traced replay with no forensics pass:
// the denominator of the overhead budget.
func BenchmarkReplayBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		analyzedReplay(false)
	}
}

// BenchmarkReplayAnalyzed is the same replay followed by a full forensics
// pass (critical paths + blame decomposition for every run).
func BenchmarkReplayAnalyzed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := analyzedReplay(true); n != replay.Runs {
			b.Fatalf("analyzed %d runs, want %d", n, replay.Runs)
		}
	}
}

// TestEmitBenchReport measures the forensics pass's cost on the shared
// campaign replay, timed by benchkit.MinCPU, and writes
// BENCH_forensics.json.
func TestEmitBenchReport(t *testing.T) {
	out := benchkit.OutPath(t)
	const samples = 8 // per arm
	m := benchkit.MinCPU(t, samples,
		func() { analyzedReplay(false) },
		func() { analyzedReplay(true) })
	overhead := m.OverheadPct()
	if overhead > 5 {
		t.Errorf("forensics overhead %.1f%% exceeds the 5%% budget", overhead)
	}
	benchkit.WriteReport(t, out, map[string]any{
		"scenario":             "replay-200x2000",
		"nodes":                replay.Nodes,
		"runs":                 replay.Runs,
		"samples_per_arm":      samples,
		"baseline_cpu_seconds": m.Base,
		"analyzed_cpu_seconds": m.Treated,
		"overhead_pct":         overhead,
		"overhead_budget_pct":  5.0,
	})
}

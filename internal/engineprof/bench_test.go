package engineprof_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/benchkit/replay"
	"repro/internal/engineprof"
)

// BenchmarkReplayDetached is the shared campaign replay with no probe
// attached: the denominator of the overhead budget, and the headline
// events/sec number.
func BenchmarkReplayDetached(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		replay.Run(replay.Options{})
	}
}

// BenchmarkReplayProfiled is the same replay with the kernel profiler
// observing every schedule, fire and cancel.
func BenchmarkReplayProfiled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		replay.Run(replay.Options{Probe: engineprof.New()})
	}
}

// TestEmitBenchReport measures the kernel's replay throughput — events
// per CPU second with the profiler detached and attached — and writes
// BENCH_sim.json. The arms are timed by benchkit.MinCPU; a measurement
// that exceeds the 5% budget is re-taken once and the quieter of the two
// is reported.
//
// When BENCH_BASELINE names a committed baseline report, the detached
// events/sec must stay within 20% of it — the trajectory gate that
// catches kernel regressions in CI.
func TestEmitBenchReport(t *testing.T) {
	out := benchkit.OutPath(t)
	const samples = 12 // per arm
	// The acceptance assertions: the replay schedules zero untagged
	// events, and the profiler sees every event the engine fires.
	events := replay.Run(replay.Options{}).Engine.EventsFired()
	prof := engineprof.New()
	replay.Run(replay.Options{Probe: prof})
	rep := prof.Report()
	if ut := rep.Untagged(); ut.Scheduled != 0 || ut.Fired != 0 || ut.Cancelled != 0 {
		t.Fatalf("replay scheduled untagged events: %+v", ut)
	}
	if rep.TotalFired() != events {
		t.Fatalf("profiler counted %d fired events, engine counted %d",
			rep.TotalFired(), events)
	}
	detached := func() { replay.Run(replay.Options{}) }
	profiled := func() { replay.Run(replay.Options{Probe: engineprof.New()}) }
	m := benchkit.MinCPU(t, samples, detached, profiled)
	if m.OverheadPct() > 5 {
		m = m.Quieter(benchkit.MinCPU(t, samples, detached, profiled))
	}
	overhead := m.OverheadPct()
	epsDetached := float64(events) / m.Base
	report := map[string]any{
		"scenario":                "sim-replay-200x2000",
		"nodes":                   replay.Nodes,
		"runs":                    replay.Runs,
		"samples_per_arm":         samples,
		"events_fired":            events,
		"detached_cpu_seconds":    m.Base,
		"profiled_cpu_seconds":    m.Treated,
		"events_per_sec_detached": epsDetached,
		"events_per_sec_profiled": float64(events) / m.Treated,
		"overhead_pct":            overhead,
		"overhead_budget_pct":     5.0,
	}
	if overhead > 5 {
		t.Errorf("profiler overhead %.1f%% exceeds the 5%% budget", overhead)
	}
	if basePath := os.Getenv("BENCH_BASELINE"); basePath != "" {
		raw, err := os.ReadFile(basePath)
		if err != nil {
			t.Fatalf("BENCH_BASELINE: %v", err)
		}
		var baseline struct {
			EventsPerSecDetached float64 `json:"events_per_sec_detached"`
		}
		if err := json.Unmarshal(raw, &baseline); err != nil {
			t.Fatalf("BENCH_BASELINE: %v", err)
		}
		if baseline.EventsPerSecDetached > 0 {
			ratio := epsDetached / baseline.EventsPerSecDetached
			report["baseline_events_per_sec"] = baseline.EventsPerSecDetached
			report["baseline_ratio"] = ratio
			if ratio < 0.8 {
				t.Errorf("events/sec regressed to %.0f (%.0f%% of the %.0f baseline; floor is 80%%)",
					epsDetached, 100*ratio, baseline.EventsPerSecDetached)
			}
		}
	}
	benchkit.WriteReport(t, out, report)
}

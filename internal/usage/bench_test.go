package usage

import (
	"fmt"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/cluster"
	"repro/internal/factory"
	"repro/internal/sim"
)

// benchCampaign drives a synthetic multi-day campaign: forecasts×days
// incremental runs (incs increments each) packed onto a small cluster,
// with enough co-location to keep the sampler's event path hot. When
// sampled is true a Sampler with the default interval observes the whole
// thing. Returns the final virtual time.
func benchCampaign(forecasts, days, incs int, sampled bool) float64 {
	e := sim.NewEngine()
	c := cluster.New(e)
	nodes := []*cluster.Node{
		c.AddNode("n1", 2, 1.0),
		c.AddNode("n2", 2, 1.0),
		c.AddNode("n3", 2, 0.8),
	}
	var s *Sampler
	horizon := float64(days) * 86400
	if sampled {
		s = NewSampler(c, Options{})
		s.Start(horizon)
	}
	for d := 0; d < days; d++ {
		for f := 0; f < forecasts; f++ {
			n := nodes[f%len(nodes)]
			name := fmt.Sprintf("f%02d", f)
			start := float64(d)*86400 + float64(f%4)*900
			e.At(start, func() {
				var next func(i int)
				next = func(i int) {
					if i >= incs {
						return
					}
					n.Submit(fmt.Sprintf("%s[%d/%d]", name, i, incs),
						20000.0/float64(incs), func() { next(i + 1) })
				}
				next(0)
			})
		}
	}
	e.Run()
	if s != nil {
		s.Finalize(e.Now())
	}
	return e.Now()
}

// benchFactory runs a fig8 factory campaign — the workload the sampler
// actually rides on, with estimation, planning, and log writing per day —
// optionally observed by a Sampler. days > 0 truncates the campaign for
// quick benchmarks; days <= 0 runs the standard campaign unmodified.
func benchFactory(days int, sampled bool) {
	cfg := factory.Figure8Scenario()
	if days > 0 {
		cfg.Days = days
		var kept []factory.Event
		for _, e := range cfg.Events {
			if e.EventDay() < cfg.StartDay+cfg.Days {
				kept = append(kept, e)
			}
		}
		cfg.Events = kept
	}
	c, err := factory.New(cfg)
	if err != nil {
		panic(err)
	}
	var s *Sampler
	if sampled {
		s = NewSampler(c.Cluster(), Options{})
		s.Start(c.Horizon())
	}
	c.Run()
	if s != nil {
		s.Finalize(c.Engine().Now())
	}
}

// BenchmarkCampaignBaseline is the synthetic event-churn workload with no
// sampler: nothing but cluster lifecycle events, the harshest possible
// denominator for sampler overhead.
func BenchmarkCampaignBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCampaign(8, 4, 24, false)
	}
}

// BenchmarkCampaignSampled is the same workload observed by a Sampler;
// the delta against Baseline is the sampler's raw event-path cost.
func BenchmarkCampaignSampled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCampaign(8, 4, 24, true)
	}
}

// BenchmarkFactoryBaseline is a 6-day fig8 factory campaign, unsampled.
func BenchmarkFactoryBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchFactory(6, false)
	}
}

// BenchmarkFactorySampled is the 6-day fig8 campaign under observation;
// the delta against FactoryBaseline is the overhead the 5% budget is
// about.
func BenchmarkFactorySampled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchFactory(6, true)
	}
}

// TestEmitBenchReport measures the sampler's slowdown on the standard
// fig8 campaign, timed by benchkit.MinCPU, and writes BENCH_usage.json.
func TestEmitBenchReport(t *testing.T) {
	out := benchkit.OutPath(t)
	const samples = 8 // per arm
	m := benchkit.MinCPU(t, samples,
		func() { benchFactory(0, false) },
		func() { benchFactory(0, true) })
	overhead := m.OverheadPct()
	if overhead > 5 {
		t.Errorf("sampler overhead %.1f%% exceeds the 5%% budget", overhead)
	}
	benchkit.WriteReport(t, out, map[string]any{
		"scenario":             "fig8",
		"days":                 factory.Figure8Scenario().Days,
		"samples_per_arm":      samples,
		"baseline_cpu_seconds": m.Base,
		"sampled_cpu_seconds":  m.Treated,
		"overhead_pct":         overhead,
		"overhead_budget_pct":  5.0,
	})
}

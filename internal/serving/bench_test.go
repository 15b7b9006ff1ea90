package serving

import (
	"testing"

	"repro/internal/benchkit"
)

// benchScenario is the BENCH_serving.json workload: two days, a late
// day-1 forecast, and a flash crowd focused on the storm region — sized
// so well over a million simulated user requests hit the edge.
func benchScenario(users int) ScenarioConfig {
	return ScenarioConfig{
		Days:     2,
		Users:    users,
		Products: stormProducts(),
		LateDay:  1,
		LateBy:   3 * 3600,
		Load: LoadConfig{
			Storms: []Storm{{
				Start: 86400 + 7*3600, Duration: 5 * 3600, Multiplier: 6,
				Forecast: "columbia",
			}},
		},
	}
}

func BenchmarkStormScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunScenario(benchScenario(300000))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Requests == 0 {
			b.Fatal("no requests served")
		}
	}
}

// TestEmitBenchReport runs the storm scenario with 1.2M simulated users
// and writes the serving-quality report to the file named by BENCH_OUT;
// `make bench` sets it and CI uploads the result as an artifact. Without
// BENCH_OUT the test is skipped.
//
// The report gates on the tentpole's acceptance criteria: ≥1M simulated
// user requests measured, and zero made-to-stock deadlines displaced by
// render load during the flash crowd.
func TestEmitBenchReport(t *testing.T) {
	out := benchkit.OutPath(t)
	const users = 1_200_000
	res, err := RunScenario(benchScenario(users))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Requests < 1_000_000 {
		t.Errorf("requests = %d, want ≥ 1M simulated user requests", st.Requests)
	}
	if len(res.StockLate) != 0 {
		t.Errorf("made-to-stock deadlines displaced under storm load: %v", res.StockLate)
	}
	report := map[string]any{
		"scenario":                 "serving-storm-2day",
		"users":                    users,
		"days":                     2,
		"requests":                 st.Requests,
		"cache_hit_rate":           st.HitRate,
		"shed_fraction":            st.ShedFraction,
		"coalesced":                st.Coalesced,
		"renders":                  st.Renders,
		"served_stale":             st.ServedStale,
		"staleness_p50_seconds":    st.StalenessP50,
		"staleness_p99_seconds":    st.StalenessP99,
		"staleness_max_seconds":    st.StalenessMax,
		"mean_render_wait_seconds": st.MeanWait,
		"stock_late":               len(res.StockLate),
		"stock_runs":               len(res.StockCompletion),
		"min_requests_gate":        1_000_000,
		"stock_late_gate":          0,
	}
	benchkit.WriteReport(t, out, report)
}

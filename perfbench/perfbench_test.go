package main

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/factory"
	"repro/internal/serving"
)

// Stepping a campaign one RunUntil day at a time, as the benchmark does,
// must give exactly the RunResults of Campaign.Run.
func TestSteppedCampaignMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		cfg  func() factory.Config
	}{
		{"fig8", 0, factory.Figure8Scenario},
		{"growth", 1, func() factory.Config { return growthConfig(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, _ := findWorkload(tc.name)
			r, err := measure(w, tc.seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			o := r.inst.outcome()
			if len(o.violations) > 0 {
				t.Fatalf("invariants: %v", o.violations)
			}
			c, err := factory.New(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			want := campaignRecords(c.Run())
			if !reflect.DeepEqual(o.records, want) {
				for k, v := range want {
					if o.records[k] != v {
						t.Errorf("%s: stepped %q, Run %q", k, o.records[k], v)
					}
				}
				t.Fatalf("stepped campaign has %d records, Run %d", len(o.records), len(want))
			}
		})
	}
}

// The composed public edge must reproduce serving.RunScenario on the
// same config, field for field.
func TestComposedEdgeMatchesRunScenario(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		days int
	}{{0, 2}, {5, 12}} {
		cfg := edgeConfig(tc.seed, tc.days)
		want, err := serving.RunScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newEdge(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d <= tc.days; d++ {
			r.eng.RunUntil(float64(d) * 86400)
		}
		r.finish()
		got := r.res
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("seed %d: Stats differ:\n got %+v\nwant %+v", tc.seed, got.Stats, want.Stats)
		}
		if got.TotalRequests != want.TotalRequests {
			t.Errorf("seed %d: TotalRequests %d, want %d", tc.seed, got.TotalRequests, want.TotalRequests)
		}
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"StockLate", got.StockLate, want.StockLate},
			{"StockCompletion", got.StockCompletion, want.StockCompletion},
			{"StockDeadlines", got.StockDeadlines, want.StockDeadlines},
			{"Renders", got.Renders, want.Renders},
			{"Demand", got.Demand, want.Demand},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("seed %d: %s = %v, want %v", tc.seed, f.name, f.got, f.want)
			}
		}
		if tc.seed == 0 && want.Stats.Requests < 1_000_000 {
			t.Errorf("storm setup served %d requests, want ≥1M", want.Stats.Requests)
		}
		if o := r.outcome(); len(o.violations) > 0 {
			t.Errorf("seed %d: invariants: %v", tc.seed, o.violations)
		}
	}
}

// The campaign check must catch a planned run that never shows up.
func TestCampaignCheckCatchesMissingRun(t *testing.T) {
	r, err := newCampaign(factory.Figure8Scenario())
	if err != nil {
		t.Fatal(err)
	}
	r.finish()
	if o := r.outcome(); len(o.violations) > 0 {
		t.Fatalf("invariants: %v", o.violations)
	}
	r.results = r.results[1:]
	r.launched--
	o := r.outcome()
	if len(o.violations) == 0 || !strings.HasPrefix(o.violations[0], "the config plans 282 launches; 281 results (1 planned ones missing)") {
		t.Fatalf("one run dropped from results and logs: violations %v", o.violations)
	}
}

// A calibration slice allocates nothing, so it neither triggers nor
// assists garbage collection.
func TestCalibrationSliceAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(5, func() { calK.slice() }); n != 0 {
		t.Fatalf("calibration slice allocates %v objects", n)
	}
}

// BENCHMARK.json is generated from the metric tables (-manifest).
func TestManifestIsCurrent(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate with `perfbench -manifest > BENCHMARK.json`")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{5, 1, 3, 2, 9, 7, 4, 8, 6, 10.5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	xs := make([]float64, 76)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, _ := tail(xs); v != 65 {
		t.Errorf("tail of 0..75 = %v, want 65 (ten samples above)", v)
	}
}

// A changed record is counted once, and a missing one is counted too.
func TestReferenceCheckCountsDifferences(t *testing.T) {
	w, _ := findWorkload("growth")
	o := &outcome{records: map[string]string{"a": "1", "b": "2", "c": "3"}}
	ref := reference{"growth": {"4": o.hashes()}}
	if v := ref.check(w, 4, o); v.failed != 0 || v.attempted != 3 {
		t.Fatalf("identical outcome: %+v", v)
	}
	o.records["b"] = "changed"
	if v := ref.check(w, 4, o); v.failed != 1 {
		t.Fatalf("one changed record: %+v", v)
	}
	delete(o.records, "c")
	if v := ref.check(w, 4, o); v.failed != 2 || v.attempted != 3 {
		t.Fatalf("changed plus missing record: %+v", v)
	}
	if v := ref.check(w, 5, o); v.failed != 0 {
		t.Fatalf("seed without reference is checked for invariants only: %+v", v)
	}
}

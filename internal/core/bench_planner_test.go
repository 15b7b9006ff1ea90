package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/benchkit"
)

// plannerBenchPlant builds the fleet-scale drop-loop scenario: nRuns
// deadline runs spread over nNodes two-CPU nodes, deliberately
// over-committed (~1.5× the daily window) so BuildSchedule's drop loop
// has to shed a large fraction of the plan one victim at a time — the
// worst case the incremental engine exists for. Deterministic, so the
// incremental and full-repredict sides see identical inputs.
func plannerBenchPlant(nNodes, nRuns int) ([]NodeInfo, []Run) {
	nodes := make([]NodeInfo, nNodes)
	for i := range nodes {
		nodes[i] = NodeInfo{Name: fmt.Sprintf("node%03d", i), CPUs: 2, Speed: 1}
	}
	runs := make([]Run, nRuns)
	perNode := nRuns / nNodes
	if perNode < 1 {
		perNode = 1
	}
	// ~1.5× the 172800 capacity-seconds window per node, varied per run so
	// work ties are rare and the decreasing heuristics stay busy.
	meanWork := 1.5 * 172800 / float64(perNode)
	for i := range runs {
		runs[i] = Run{
			Name:     fmt.Sprintf("run%04d", i),
			Work:     meanWork * (0.5 + float64(i%perNode)/float64(perNode)),
			Start:    float64((i % 8) * 900),
			Deadline: 86400,
			Priority: i % 10,
		}
	}
	return nodes, runs
}

// benchDropLoop runs one full BuildSchedule pass over the scenario.
func benchDropLoop(nodes []NodeInfo, runs []Run, fullRepredict bool) *Schedule {
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{
		Heuristic:     WorstFitDecreasing,
		AllowDrop:     true,
		fullRepredict: fullRepredict,
	})
	if err != nil {
		panic(err)
	}
	return s
}

// BenchmarkDropLoopIncremental is the 200-node × 2000-run drop loop with
// the incremental engine: each drop re-sweeps only the victim's node.
func BenchmarkDropLoopIncremental(b *testing.B) {
	nodes, runs := plannerBenchPlant(200, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchDropLoop(nodes, runs, false)
		b.ReportMetric(float64(len(s.Dropped)), "drops/op")
	}
}

// BenchmarkDropLoopFullRepredict is the same scenario with a validated
// full-plan sweep after every drop — the pre-incremental behaviour, kept
// as the baseline the speedup gate measures against.
func BenchmarkDropLoopFullRepredict(b *testing.B) {
	nodes, runs := plannerBenchPlant(200, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDropLoop(nodes, runs, true)
	}
}

// BenchmarkPredictFull times one full-plan prediction at fleet scale —
// the path the bounded worker pool parallelizes.
func BenchmarkPredictFull(b *testing.B) {
	nodes, runs := plannerBenchPlant(200, 2000)
	assign, err := Pack(nodes, runs, WorstFitDecreasing)
	if err != nil {
		b.Fatal(err)
	}
	plan := &Plan{Nodes: nodes, Runs: runs, Assign: assign}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Predict(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDropLoopIncrementalMatchesFullRepredict is the always-on
// cross-validation gate at a size small enough for every `go test` run:
// the incremental drop loop must drop the same victims and predict the
// same completions as the full-repredict baseline.
func TestDropLoopIncrementalMatchesFullRepredict(t *testing.T) {
	nodes, runs := plannerBenchPlant(20, 200)
	inc := benchDropLoop(nodes, runs, false)
	full := benchDropLoop(nodes, runs, true)
	if len(inc.Dropped) == 0 {
		t.Fatal("scenario did not exercise the drop loop")
	}
	if !reflect.DeepEqual(inc.Dropped, full.Dropped) {
		t.Fatalf("dropped sets diverge: incremental %v, full %v", inc.Dropped, full.Dropped)
	}
	if !sameCompletion(inc.Prediction.Completion, full.Prediction.Completion) {
		t.Fatal("incremental and full predictions diverge")
	}
	if !reflect.DeepEqual(inc.Plan.Assign, full.Plan.Assign) {
		t.Fatal("assignments diverge")
	}
}

// TestEmitPlannerBenchReport measures the incremental engine's speedup on
// the 200-node × 2000-run drop loop, timed by benchkit.MinCPU, and writes
// BENCH_planner.json. The job fails if the two modes' predictions diverge
// or the speedup drops below the 5× floor.
func TestEmitPlannerBenchReport(t *testing.T) {
	out := benchkit.OutPath(t)
	nodes, runs := plannerBenchPlant(200, 2000)

	// Equivalence gate first: a fast wrong answer must fail the job.
	inc := benchDropLoop(nodes, runs, false)
	full := benchDropLoop(nodes, runs, true)
	equivalent := reflect.DeepEqual(inc.Dropped, full.Dropped) &&
		sameCompletion(inc.Prediction.Completion, full.Prediction.Completion)
	if !equivalent {
		t.Errorf("incremental and full-repredict drop loops diverge")
	}

	const samples = 6 // per arm
	m := benchkit.MinCPU(t, samples,
		func() { benchDropLoop(nodes, runs, true) },
		func() { benchDropLoop(nodes, runs, false) })
	speedup := m.Base / m.Treated
	if speedup < 5.0 {
		t.Errorf("incremental speedup %.1f× below the 5× floor", speedup)
	}
	benchkit.WriteReport(t, out, map[string]any{
		"scenario":                "drop-loop",
		"nodes":                   len(nodes),
		"runs":                    len(runs),
		"drops":                   len(inc.Dropped),
		"samples_per_arm":         samples,
		"full_cpu_seconds":        m.Base,
		"incremental_cpu_seconds": m.Treated,
		"speedup":                 speedup,
		"speedup_floor":           5.0,
		"predictions_agree":       equivalent,
	})
}

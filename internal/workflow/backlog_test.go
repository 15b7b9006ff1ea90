package workflow

import (
	"math"
	"testing"
	"time"

	"repro/internal/forecast"
	"repro/internal/telemetry"
)

// pollProbe calls check after every workflow-labeled event. In a single
// run those are exactly the master process's polls.
type pollProbe struct{ check func() }

func (pollProbe) EventScheduled(string, float64, float64, int)          {}
func (pollProbe) EventCancelled(string, float64, float64, float64, int) {}
func (p pollProbe) EventFired(label string, _, _ float64, _ time.Duration, _ int) {
	if label == "workflow" {
		p.check()
	}
}

// recountBacklog counts, from the filesystem's paths, the products with
// input ready and no worker.
func recountBacklog(p *ProductEngine) int {
	depth := 0
	for _, st := range p.products {
		if st.active {
			continue
		}
		var avail, total float64
		for _, in := range st.spec.Inputs {
			t := float64(p.cfg.InputTotals[in])
			avail += math.Min(float64(p.cfg.FS.Size(p.OutputPath(in))), t)
			total += t
		}
		frac := 1.0
		if total > 0 {
			frac = avail / total
		}
		for _, dep := range st.spec.DependsOn {
			if d, ok := p.byName[dep]; ok {
				frac = math.Min(frac, d.consumedFraction())
			}
		}
		if frac*st.totalIn-st.consumed > 1 {
			depth++
		}
	}
	return depth
}

// TestBacklogGaugeExactOnEverySaturatedPoll checks the backlog gauge
// against a brute-force recount after every poll that leaves all workers
// busy, including polls that skip the scan because nothing changed.
func TestBacklogGaugeExactOnEverySaturatedPoll(t *testing.T) {
	e, n, fs := fixture()
	spec := forecast.NewSpec("f", "r", 1920, 20000, 12)
	tel := telemetry.New()
	cfg := localConfig(spec, n, fs)
	cfg.Telemetry = tel
	r := Start(e, cfg)
	gauge := tel.Registry().Gauge("workflow_product_queue_depth", nil)
	saturated, backlogged := 0, 0
	e.SetProbe(pollProbe{check: func() {
		p := r.engine
		if p.active < p.cfg.Workers {
			return
		}
		saturated++
		want := recountBacklog(p)
		if want > 0 {
			backlogged++
		}
		if got := gauge.Value(); got != float64(want) {
			t.Fatalf("t=%v: backlog gauge %v, recount %d", e.Now(), got, want)
		}
	}})
	e.Run()
	if !r.Finished() {
		t.Fatal("run did not finish")
	}
	if saturated < 50 || backlogged < 20 {
		t.Fatalf("only %d saturated polls, %d with a backlog; the check is too weak", saturated, backlogged)
	}
	t.Logf("%d saturated polls checked, %d with a backlog", saturated, backlogged)
}

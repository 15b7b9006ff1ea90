// Package replay is the synthetic campaign the observer overhead gates
// time: Nodes two-CPU nodes, one run a day on each for Days days, each
// run a chain of Incs increments on its node, with the usage sampler
// watching the cluster as the factory's standing instrumentation does.
//
// Every event goes through a named scope: launches via "replay",
// completions via the cluster's "ps" resources, sampler ticks via
// "usage". The kernel profiler's gate asserts that none is untagged.
package replay

import (
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

// The replay's shape, fixed so every gate times the same campaign.
const (
	Nodes = 200
	Runs  = 2000
	Incs  = 96
	Days  = Runs / Nodes
)

// Record is one finished run, as the per-run callback sees it.
type Record struct {
	Forecast string
	Day      int // 1-based
	Node     string
	Start    float64 // launch time, which is also the planned start
	End      float64
}

// Options selects what observes the replay.
type Options struct {
	// Probe, when non-nil, is attached to the engine for the whole
	// replay.
	Probe sim.Probe
	// Trace records a "campaign" root span and, per run, a "run" span
	// (args forecast, day, node) around a "simulation" span.
	Trace bool
	// OnRun, when non-nil, is called at each run's completion, after its
	// spans end.
	OnRun func(Record)
}

// Result is what a finished replay leaves for its observers to analyze.
type Result struct {
	Engine  *sim.Engine
	Sampler *usage.Sampler    // finalized at the replay's end
	Tracer  *telemetry.Tracer // nil unless Options.Trace
	Nodes   []string          // node names, in index order
}

// Run replays the campaign to completion.
func Run(opt Options) *Result {
	e := sim.NewEngine()
	if opt.Probe != nil {
		e.SetProbe(opt.Probe)
	}
	res := &Result{Engine: e, Nodes: make([]string, Nodes)}
	if opt.Trace {
		res.Tracer = telemetry.NewTracer(e.Now)
	}
	tr := res.Tracer
	cl := cluster.New(e)
	cn := make([]*cluster.Node, Nodes)
	for i := range cn {
		res.Nodes[i] = fmt.Sprintf("bn%03d", i)
		cn[i] = cl.AddNode(res.Nodes[i], 2, 1.0)
	}
	res.Sampler = usage.NewSampler(cl, usage.Options{Interval: 900})
	res.Sampler.Start(Days * 86400)
	root := tr.Begin("campaign", "bench", "factory", telemetry.SpanRef{})
	sched := e.Scope("replay")
	for d := 0; d < Days; d++ {
		for f := 0; f < Nodes; f++ {
			r := Record{
				Forecast: fmt.Sprintf("bf%03d", f),
				Day:      d + 1,
				Node:     res.Nodes[f],
				Start:    float64(d)*86400 + float64(f%8)*450,
			}
			// Deterministic jitter, so control charts judge varied
			// points instead of a flat line.
			cost := 3000.0 + float64((f*7+d*13)%11)
			sched.At(r.Start, func() {
				var rs, ss telemetry.SpanRef
				if tr != nil {
					rs = tr.Begin("run", r.Forecast, r.Node, root)
					rs.SetArg("forecast", r.Forecast)
					rs.SetArg("day", strconv.Itoa(r.Day))
					rs.SetArg("node", r.Node)
					ss = tr.Begin("simulation", "sim "+r.Forecast, r.Node, rs)
				}
				var next func(i int)
				next = func(i int) {
					if i < Incs {
						cn[f].Submit(fmt.Sprintf("%s[%d]", r.Forecast, i),
							cost/Incs, func() { next(i + 1) })
						return
					}
					ss.EndSpan()
					rs.EndSpan()
					if opt.OnRun != nil {
						r.End = e.Now()
						opt.OnRun(r)
					}
				}
				next(0)
			})
		}
	}
	e.Run()
	root.EndSpan()
	res.Sampler.Finalize(e.Now())
	return res
}

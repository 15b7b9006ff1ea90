package main

import (
	"time"

	"repro/internal/sim"
)

// labelCounts is one kernel label's share of a traced run. Events do not
// nest (the kernel runs one handler at a time), so a label's handler time
// is its self time.
type labelCounts struct {
	Scheduled int64
	Fired     int64
	Cancelled int64
	SelfNS    int64
}

// probe is the benchmark's own sim.Probe: exact per-label counts and,
// with SetProbeSampling(1), every handler timed.
type probe struct {
	labels      map[string]*labelCounts
	peakPending int
}

var _ sim.Probe = (*probe)(nil)

func newProbe() *probe { return &probe{labels: make(map[string]*labelCounts)} }

// attach times every handler of eng from now on.
func (p *probe) attach(eng *sim.Engine) {
	eng.SetProbe(p)
	eng.SetProbeSampling(1)
}

func (p *probe) label(name string) *labelCounts {
	lc := p.labels[name]
	if lc == nil {
		lc = &labelCounts{}
		p.labels[name] = lc
	}
	return lc
}

func (p *probe) EventScheduled(label string, _, _ float64, pending int) {
	p.label(label).Scheduled++
	if pending > p.peakPending {
		p.peakPending = pending
	}
}

func (p *probe) EventFired(label string, _, _ float64, wall time.Duration, _ int) {
	lc := p.label(label)
	lc.Fired++
	if wall > 0 {
		lc.SelfNS += int64(wall)
	}
}

func (p *probe) EventCancelled(label string, _, _, _ float64, _ int) {
	p.label(label).Cancelled++
}

// get returns a label's counts (zero when the label never appeared).
func (p *probe) get(name string) labelCounts {
	if lc := p.labels[name]; lc != nil {
		return *lc
	}
	return labelCounts{}
}

// totals sums fired, cancelled and handler time over every label.
func (p *probe) totals() labelCounts {
	var t labelCounts
	for _, lc := range p.labels {
		t.Scheduled += lc.Scheduled
		t.Fired += lc.Fired
		t.Cancelled += lc.Cancelled
		t.SelfNS += lc.SelfNS
	}
	return t
}

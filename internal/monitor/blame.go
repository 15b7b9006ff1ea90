package monitor

import (
	"fmt"

	"repro/internal/factory"
	"repro/internal/forensics"
)

// BlameShiftRule fires when the dominant lateness component changes
// between campaign days — the SPC "assignable cause" signal: a factory
// whose lateness was explained by contention yesterday and by failures
// today has a new problem, not more of the old one. Day verdicts come
// from the forensics layer's per-day blame aggregation and are reported
// via ObserveBlame. The zero value disables the rule.
type BlameShiftRule struct {
	// MinLateness is the summed positive lateness (sim seconds) a day
	// must show before its dominant component is trusted; quieter days
	// carry no signal and are skipped. Zero or negative disables the
	// rule entirely.
	MinLateness float64
	Severity    Severity
}

// blameState remembers the last qualifying day's verdict between
// ObserveBlame calls.
type blameState struct {
	seen     bool
	day      int
	dominant string
}

// ObserveBlame reports one day's forensic verdict: its dominant lateness
// component (forensics.CompNone / "none" when nothing is to blame) and
// its summed positive lateness. Days arriving out of order are ignored.
// When the dominant component differs from the previous qualifying day's,
// the blame_shift alert fires; while the component stays put the alert
// resolves. Callers iterate a forensics report's Days.
func (m *Monitor) ObserveBlame(day int, dominant string, lateness float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rule := m.opts.Blame
	if rule.MinLateness <= 0 {
		return
	}
	if m.blame.seen && day <= m.blame.day {
		return
	}
	if dominant == "" || dominant == "none" || lateness < rule.MinLateness {
		return // no trustworthy verdict; keep the previous baseline
	}
	if !m.blame.seen {
		m.blame = blameState{seen: true, day: day, dominant: dominant}
		return
	}
	prev := m.blame
	m.blame = blameState{seen: true, day: day, dominant: dominant}
	key := "blame_shift"
	if dominant == prev.dominant {
		m.book.resolve(m.now, key)
		return
	}
	m.book.fire(m.now, Alert{
		Rule: "blame_shift", Key: key, Severity: rule.Severity,
		Day: day, Value: lateness, Threshold: rule.MinLateness,
		Message: fmt.Sprintf("dominant lateness cause shifted from %s (day %d) to %s (day %d)",
			prev.dominant, prev.day, dominant, day),
	})
}

// BlamePlan is the plan lateness blame is measured against: the one the
// control room watched for campaign c. A run's planned start is the
// launch rule (day start + spec offset), its planned end the launch-time
// completion prediction (the current ETA when none was made), and its
// deadline the SLO's. Runs the monitor never saw launch (dropped) get a
// zero-length plan window and are analyzed as unplanned. It reads a
// Status snapshot, so it is safe to call while the simulation runs.
func (m *Monitor) BlamePlan(c *factory.Campaign) []forensics.PlanEntry {
	var plan []forensics.PlanEntry
	for _, r := range m.Status().Runs {
		start := r.Start
		if s := c.Spec(r.Forecast); s != nil {
			start = float64(r.Day-c.StartDay())*factory.SecondsPerDay + s.StartOffset
		}
		end := r.LaunchETA
		if end == 0 {
			end = r.ETA
		}
		plan = append(plan, forensics.PlanEntry{
			Forecast: r.Forecast, Day: r.Day, Node: r.Node,
			Start: start, End: end, Deadline: r.Deadline,
		})
	}
	return plan
}

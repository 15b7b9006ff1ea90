// History-fit baselines: seed the observatory's control limits from the
// harvested runs table instead of burning the first minBaseline live
// points on learning. History is segmented at code-version changes — the
// paper's user-supplied version factor is exactly a known level shift —
// so only the latest version's runs define "in control", and each
// earlier boundary is recorded as a code_version changepoint.

package spc

import (
	"sort"

	"repro/internal/logs"
	"repro/internal/statsdb"
)

// BaselineFit is one per-forecast history fit: the walltime baseline of
// the newest code-version segment plus the changepoints at each earlier
// version boundary.
type BaselineFit struct {
	Forecast string
	// Center and Sigma describe run_time/<forecast> under the current
	// code version; N is how many runs the segment holds.
	Center float64
	Sigma  float64
	N      int
	// CodeVersion is the version the baseline describes.
	CodeVersion string
	// Changepoints are the version boundaries in the history, oldest
	// first, with Cause = CauseCodeVersion.
	Changepoints []Changepoint
}

// FitRunHistory fits per-forecast walltime baselines from harvested run
// records, segmenting at code-version changes. Only completed runs
// count; forecasts whose newest segment holds fewer than two runs are
// skipped (no sigma estimate). Records may arrive in any order.
func FitRunHistory(records []*logs.RunRecord) []BaselineFit {
	byForecast := make(map[string][]*logs.RunRecord)
	var names []string
	for _, r := range records {
		if r.Status != logs.StatusCompleted || r.Forecast == "" {
			continue
		}
		if _, ok := byForecast[r.Forecast]; !ok {
			names = append(names, r.Forecast)
		}
		byForecast[r.Forecast] = append(byForecast[r.Forecast], r)
	}
	sort.Strings(names)

	var fits []BaselineFit
	for _, name := range names {
		runs := byForecast[name]
		sort.Slice(runs, func(i, j int) bool {
			if runs[i].Day != runs[j].Day {
				return runs[i].Day < runs[j].Day
			}
			return runs[i].Start < runs[j].Start
		})
		fit := BaselineFit{Forecast: name}
		// Split into contiguous same-version segments.
		type segment struct {
			version string
			day     int
			t       float64
			vals    []float64
		}
		var segs []segment
		for _, r := range runs {
			if len(segs) == 0 || segs[len(segs)-1].version != r.CodeVersion {
				segs = append(segs, segment{version: r.CodeVersion, day: r.Day, t: r.Start})
			}
			s := &segs[len(segs)-1]
			s.vals = append(s.vals, r.Walltime)
		}
		for i := 1; i < len(segs); i++ {
			before, _ := fitBaseline(segs[i-1].vals)
			after, _ := fitBaseline(segs[i].vals)
			fit.Changepoints = append(fit.Changepoints, Changepoint{
				Day: segs[i].day, T: segs[i].t,
				Cause:  CauseCodeVersion,
				Before: before, After: after,
				DetectedDay: segs[i].day,
			})
		}
		last := segs[len(segs)-1]
		if len(last.vals) < 2 {
			continue
		}
		fit.Center, fit.Sigma = fitBaseline(last.vals)
		fit.N = len(last.vals)
		fit.CodeVersion = last.version
		fits = append(fits, fit)
	}
	return fits
}

// SeedFromDB fits baselines from a harvested stats database and seeds
// the observatory's run_time series with them, recording code-version
// boundaries as changepoints. Returns the fits applied; a database with
// no runs table seeds nothing.
func (o *Observatory) SeedFromDB(db *statsdb.DB) ([]BaselineFit, error) {
	records, err := statsdb.ReadRuns(db)
	if err != nil {
		return nil, err
	}
	fits := FitRunHistory(records)
	o.SeedFits(fits)
	return fits, nil
}

// SeedFits applies history fits: each seeds run_time/<forecast> with a
// frozen baseline and pre-loads its code-version changepoints.
func (o *Observatory) SeedFits(fits []BaselineFit) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, f := range fits {
		s := o.get(KindRunTime, f.Forecast)
		s.center = f.Center
		s.sigma = sigmaFloor(f.Sigma, f.Center)
		s.frozen = true
		s.changepoints = append(s.changepoints, f.Changepoints...)
	}
}

package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/vfs"
)

// Runs stop starting repetitions past this point so a run always exits
// well inside three minutes.
const hardStop = 120 * time.Second

// minReps repetitions are measured even when one outlasts --seconds, so
// every reported figure is a median.
const minReps = 3

// rep is one measured repetition of a workload: setup excluded, every
// day step through the drain included, calibration slices excluded. Its
// calibrator's sections are the day steps followed by the drain in
// finish.
type rep struct {
	cal            calibrator
	mallocs, bytes float64
	liveMB         float64
	days           int
	inst           instance
	prof           *probe
}

// cpuS and wallS are the repetition's reference-host CPU and wall time.
func (r *rep) cpuS() float64 {
	s := 0.0
	for i := range r.cal.sectCPU {
		s += r.cal.scaledCPUS(i)
	}
	return s
}

func (r *rep) wallS() float64 {
	s := 0.0
	for i := range r.cal.sectMS {
		s += r.cal.scaledWallMS(i) / 1000
	}
	return s
}

// stepsMS are the reference-host day step times.
func (r *rep) stepsMS() []float64 {
	out := make([]float64, r.days)
	for i := range out {
		out[i] = r.cal.scaledWallMS(i)
	}
	return out
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// allocCounts reads exact cumulative allocations, objects and bytes
// (ReadMemStats flushes every allocation cache).
func allocCounts() (objects, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs), float64(ms.TotalAlloc)
}

// measure builds one instance, then steps it a simulated day per
// RunUntil and finishes it. Each step and the drain is a calibrated
// section; allocations are counted around each. With p non-nil the probe
// is attached (every handler timed) after setup.
func measure(w workload, seed int64, p *probe) (*rep, error) {
	base := liveHeapMB()
	inst, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: setup: %w", w.name, seed, err)
	}
	eng := inst.engine()
	if p != nil {
		p.attach(eng)
	}
	r := &rep{days: inst.days(), inst: inst, prof: p}
	section := func(run func()) {
		o0, b0 := allocCounts()
		r.cal.section(run)
		o1, b1 := allocCounts()
		r.mallocs, r.bytes = r.mallocs+o1-o0, r.bytes+b1-b0
	}
	runtime.GC()
	for d := 1; d <= r.days; d++ {
		until := float64(d) * 86400
		section(func() { eng.RunUntil(until) })
	}
	section(inst.finish)
	r.liveMB = liveHeapMB() - base
	return r, nil
}

// liveHeapMB is the heap the process holds after a full collection,
// exactly: everything else is garbage then. Taken before setup and
// after the run, the difference is what the finished simulation holds.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// verify checks a measured repetition's outcome.
func (r *rep) verify(w workload, seed int64, ref reference) verdict {
	return ref.check(w, seed, r.inst.outcome())
}

// setupSeconds times setup (input generation plus building and
// preparing the simulation) in calibrated batches of at least 20ms and
// returns the reference-host time per setup of each batch.
func setupSeconds(w workload, seed int64, batches int) ([]float64, error) {
	t0 := time.Now()
	if _, err := w.setup(seed); err != nil {
		return nil, err
	}
	per := max(int(0.02/max(time.Since(t0).Seconds(), 1e-6)), 1)
	var cal calibrator
	var err error
	for b := 0; b < batches && err == nil; b++ {
		cal.section(func() {
			for i := 0; i < per && err == nil; i++ {
				_, err = w.setup(seed)
			}
		})
	}
	if err != nil {
		return nil, err
	}
	out := make([]float64, batches)
	for b := range out {
		out[b] = cal.scaledWallMS(b) / 1000 / float64(per)
	}
	return out, nil
}

// enough reports whether a run has measured its repetitions: at least
// minReps, and no time left for another one of the last one's length.
func enough(start time.Time, reps int, last, seconds float64) bool {
	el := time.Since(start)
	if el > hardStop {
		return true
	}
	return reps >= minReps && el.Seconds()+last > seconds
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w workload, seed int64, seconds float64, ref reference) (map[string]float64, verdict, error) {
	start := time.Now()
	var v verdict
	setups, err := setupSeconds(w, seed, 31)
	if err != nil {
		return nil, v, err
	}
	var cpu, rawCPU, wall, p50, tails, allocs, mb, live []float64
	var steps, days int
	var tailPct float64
	for n := 0; n == 0 || !enough(start, n, wall[n-1], seconds); n++ {
		r, err := measure(w, seed, nil)
		if err != nil {
			return nil, v, err
		}
		v.add(r.verify(w, seed, ref))
		d := float64(r.days)
		cpu = append(cpu, r.cpuS()*1000/d)
		rawCPU = append(rawCPU, sum(r.cal.sectCPU)*1000/d)
		wall = append(wall, r.wallS())
		stepsMS := r.stepsMS()
		p50 = append(p50, median(stepsMS))
		var t float64
		t, tailPct = tail(stepsMS)
		tails = append(tails, t)
		allocs = append(allocs, r.mallocs/d)
		mb = append(mb, r.bytes/1e6/d)
		live = append(live, r.liveMB)
		steps, days = steps+r.days, r.days
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d untraced reps of %d day steps (%d samples); tail = p%.1f of each rep, median over reps; setup median of %d batches\n",
		w.name, seed, len(cpu), days, steps, tailPct, len(setups))
	fmt.Fprintf(os.Stderr, "  cpu ms/day by rep: raw %.4g, reference-host %.4g\n", rawCPU, cpu)
	return map[string]float64{
		"cpu_ms_per_sim_day":   median(cpu),
		"wall_s":               median(wall),
		"day_step_ms_p50":      median(p50),
		"day_step_ms_tail":     median(tails),
		"allocs_per_sim_day":   median(allocs),
		"alloc_mb_per_sim_day": median(mb),
		"live_heap_mb":         median(live),
		"setup_s":              median(setups),
	}, v, nil
}

// tracedRun alternates untraced and traced repetitions and reports the
// per-layer split from the traced ones.
func tracedRun(w workload, seed int64, seconds float64, ref reference) (map[string]float64, verdict, error) {
	start := time.Now()
	var v verdict
	var plainCPU, tracedCPU []float64 // reference-host seconds
	var traced []*rep
	for len(traced) < 2 || !enough(start, minReps, plainCPU[len(plainCPU)-1]+tracedCPU[len(tracedCPU)-1], seconds) {
		// Alternate which side goes first (ABBA), so warm-up and drift
		// do not bias the overhead ratio.
		plainFirst := len(traced)%2 == 0
		var u, t *rep
		for _, traceThis := range []bool{!plainFirst, plainFirst} {
			var p *probe
			if traceThis {
				p = newProbe()
			}
			r, err := measure(w, seed, p)
			if err != nil {
				return nil, v, err
			}
			v.add(r.verify(w, seed, ref))
			if traceThis {
				t = r
			} else {
				u = r
			}
		}
		plainCPU, tracedCPU = append(plainCPU, u.cpuS()), append(tracedCPU, t.cpuS())
		if len(traced) > 0 {
			t.inst = nil // only the first traced instance is inspected after the run
		}
		traced = append(traced, t)
		if time.Since(start) > hardStop {
			break
		}
	}

	// Fired and cancelled counts are deterministic: every traced
	// repetition must repeat the first exactly.
	first := traced[0]
	for i, t := range traced[1:] {
		for _, l := range allLabels(traced) {
			a, b := first.prof.get(l), t.prof.get(l)
			v.attempted++
			if a.Fired != b.Fired || a.Cancelled != b.Cancelled {
				v.failed++
				v.problems = append(v.problems, fmt.Sprintf("label %s: traced rep %d fired/cancelled %d/%d, rep 1 %d/%d",
					l, i+2, b.Fired, b.Cancelled, a.Fired, a.Cancelled))
			}
		}
	}

	// Handler self time in reference-host ms, median over traced reps.
	selfMS := func(label string) float64 {
		xs := make([]float64, len(traced))
		for i, t := range traced {
			xs[i] = float64(t.prof.get(label).SelfNS) / 1e6 * t.cal.factor()
		}
		return median(xs)
	}
	var totalMS []float64
	for _, t := range traced {
		totalMS = append(totalMS, float64(t.prof.totals().SelfNS)/1e6*t.cal.factor())
	}
	share := func(label string) float64 { return selfMS(label) / median(totalMS) }

	p := first.prof
	days := float64(first.days)
	tot := p.totals()
	ps, wf, ns := p.get("ps"), p.get("workflow"), p.get("netsim")
	o := first.inst.outcome()
	files, dirs, sizeNS, walkMS := vfsTimings(o.fs)
	values := map[string]float64{
		"sim.fired_per_sim_day":     float64(tot.Fired) / days,
		"sim.cancelled_per_sim_day": float64(tot.Cancelled) / days,
		"sim.events_per_cpu_s":      float64(tot.Fired) / median(plainCPU),
		"sim.peak_pending":          float64(p.peakPending),
		"sim.untagged":              float64(max(p.get("untagged").Scheduled, p.get("untagged").Fired)),
		"ps.fired":                  float64(ps.Fired),
		"ps.cancelled":              float64(ps.Cancelled),
		"ps.cancel_per_fire":        ratio(float64(ps.Cancelled), float64(ps.Fired)),
		"ps.self_ms":                selfMS("ps"),
		"ps.share":                  share("ps"),
		"workflow.fired":            float64(wf.Fired),
		"workflow.self_ms":          selfMS("workflow"),
		"workflow.share":            share("workflow"),
		"vfs.files":                 files,
		"vfs.dirs":                  dirs,
		"vfs.size_ns":               sizeNS,
		"vfs.walk_ms":               walkMS,
		"netsim.fired":              float64(ns.Fired),
		"netsim.self_ms":            selfMS("netsim"),
		"netsim.self_us_per_tick":   ratio(selfMS("netsim")*1000, float64(ns.Fired)),
		"netsim.bytes_moved":        o.bytesMoved,
		"factory.fired":             float64(p.get("factory").Fired),
		"factory.self_ms":           selfMS("factory"),
		"serving.self_ms":           selfMS("serving"),
		"serving.load_self_ms":      selfMS("load"),
		"serving.requests":          float64(o.requests),
		"serving.renders":           float64(o.renders),
		"serving.guard_checks":      float64(o.guardChecks),
		"trace.overhead_frac":       median(tracedCPU)/median(plainCPU) - 1,
	}
	if u := values["sim.untagged"]; u != 0 {
		v.failed++
		v.problems = append(v.problems, fmt.Sprintf("%v untagged events", u))
	}
	v.attempted++
	values["outcome.failed_ops_frac"] = float64(v.failed) / float64(v.attempted)

	fmt.Fprintf(os.Stderr, "%s seed %d: %d traced + %d untraced reps; handler time by label (median reference-host ms over traced reps):\n",
		w.name, seed, len(traced), len(plainCPU))
	for _, l := range allLabels(traced) {
		c := p.get(l)
		fmt.Fprintf(os.Stderr, "  %-10s fired %9d  cancelled %9d  self %10.1f ms  share %5.1f%%\n",
			l, c.Fired, c.Cancelled, selfMS(l), 100*share(l))
	}
	return values, v, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allLabels lists every label any traced repetition saw, sorted.
func allLabels(reps []*rep) []string {
	seen := map[string]bool{}
	for _, r := range reps {
		for l := range r.prof.labels {
			seen[l] = true
		}
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// vfsTimings counts fs's files and directories and times, after the run,
// one FS.Size per file (mean ns) and one full Walk (ms), each the median
// of five calibrated passes, in reference-host units.
func vfsTimings(fs *vfs.FS) (files, dirs, sizeNS, walkMS float64) {
	var paths []string
	_ = fs.Walk("/", func(info vfs.FileInfo) error {
		if info.IsDir {
			dirs++
		} else {
			paths = append(paths, info.Path)
		}
		return nil
	})
	files = float64(len(paths))
	var cal calibrator
	var walks, sizes []float64
	for i := 0; i < 5; i++ {
		cal.section(func() { _ = fs.Walk("/", func(vfs.FileInfo) error { return nil }) })
		cal.section(func() {
			for _, p := range paths {
				fs.Size(p)
			}
		})
	}
	for i := 0; i < 5; i++ {
		walks = append(walks, cal.scaledWallMS(2*i))
		sizes = append(sizes, cal.scaledWallMS(2*i+1)*1e6/max(files, 1))
	}
	return files, dirs, median(sizes), median(walks)
}

// Package benchkit is the shared harness behind every BENCH_*.json gate:
// one way to time two arms of a measurement, and one way to write the
// report `make bench` collects.
//
// It imports nothing from this module, so in-package tests anywhere in
// the tree (usage, core) can use it without an import cycle. The
// synthetic campaign replay the observer gates time lives in the
// sibling package replay.
//
// The timing method: the two arms alternate A/B then B/A, every sample
// starts from a collected heap and is charged in process CPU seconds
// (rusage user+sys) on one P, and each arm's cost is the minimum of its
// samples. On a shared host, neighbours' cache and memory-bandwidth
// contention swing a memory-heavy workload's CPU cost by ±20% from one
// sample to the next, too fast for pairing to cancel; the fastest
// interleaved sample of each arm approaches its uncontended cost. With a
// spare P the runtime's idle GC mark workers burn otherwise idle CPU,
// which rusage would charge to whichever arm collects more; one P keeps
// the count to the work the arm itself does, mutator and collector both.
package benchkit

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"syscall"
	"testing"
)

// Pair is the minimum CPU seconds of each arm of a measurement.
type Pair struct {
	Base, Treated float64
}

// Ratio is the treated arm's cost over the base arm's.
func (p Pair) Ratio() float64 { return p.Treated / p.Base }

// OverheadPct is the treated arm's extra cost, in percent of the base.
func (p Pair) OverheadPct() float64 { return 100 * (p.Treated - p.Base) / p.Base }

// Quieter returns whichever of two measurements of the same arms had the
// cheaper base arm: the one taken in the quieter window.
func (p Pair) Quieter(q Pair) Pair {
	if q.Base < p.Base {
		return q
	}
	return p
}

// MinCPU runs base and treated n times each, interleaved, and returns the
// minimum CPU seconds per arm (see the package comment for the method).
// CPU ratios built with the race detector measure its instrumentation,
// not the code under test, so MinCPU skips t under -race.
func MinCPU(t testing.TB, n int, base, treated func()) Pair {
	t.Helper()
	if raceEnabled {
		t.Skip("CPU ratios under -race measure the detector's instrumentation")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return minCPU(n, func() float64 { return cpuSeconds(t) }, base, treated)
}

// minCPU is MinCPU's arithmetic over an injectable CPU clock.
func minCPU(n int, clock func() float64, base, treated func()) Pair {
	timed := func(arm func()) float64 {
		runtime.GC()
		t0 := clock()
		arm()
		return clock() - t0
	}
	p := Pair{Base: math.Inf(1), Treated: math.Inf(1)}
	for i := 0; i < n; i++ {
		var b, a float64
		if i%2 == 0 {
			b = timed(base)
			a = timed(treated)
		} else {
			a = timed(treated)
			b = timed(base)
		}
		p.Base = math.Min(p.Base, b)
		p.Treated = math.Min(p.Treated, a)
	}
	return p
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds(t testing.TB) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) +
		float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// OutPath returns the report file BENCH_OUT names, and skips t when it is
// unset: `make bench` sets it, and a plain `go test` leaves the gates
// alone.
func OutPath(t testing.TB) string {
	t.Helper()
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("BENCH_OUT not set")
	}
	return out
}

// WriteReport writes report to path as indented JSON and logs it.
func WriteReport(t testing.TB, path string, report any) {
	t.Helper()
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", path, data)
}

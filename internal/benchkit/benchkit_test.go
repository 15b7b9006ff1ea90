package benchkit

import (
	"math"
	"strings"
	"testing"
)

// TestMinCPUInterleavesAndKeepsMinimum drives the timing arithmetic with
// a fake CPU clock: each arm advances it by its next scripted cost, so
// the test sees the order the arms ran in and which samples won.
func TestMinCPUInterleavesAndKeepsMinimum(t *testing.T) {
	var now float64
	var order strings.Builder
	arm := func(name string, costs []float64) func() {
		i := 0
		return func() {
			order.WriteString(name)
			now += costs[i]
			i++
		}
	}
	base := arm("B", []float64{5, 3, 4, 9})
	treated := arm("T", []float64{6, 7, 3.5, 8})
	p := minCPU(4, func() float64 { return now }, base, treated)

	if got, want := order.String(), "BTTBBTTB"; got != want {
		t.Errorf("arm order %s, want %s (A/B then B/A)", got, want)
	}
	if p.Base != 3 || p.Treated != 3.5 {
		t.Errorf("minimums = %+v, want base 3, treated 3.5", p)
	}
	if got := p.Ratio(); math.Abs(got-3.5/3) > 1e-12 {
		t.Errorf("Ratio = %v, want %v", got, 3.5/3)
	}
	if got := p.OverheadPct(); math.Abs(got-100*0.5/3) > 1e-12 {
		t.Errorf("OverheadPct = %v, want %v", got, 100*0.5/3)
	}

	loud := Pair{Base: 4, Treated: 4.1}
	if p.Quieter(loud) != p || loud.Quieter(p) != p {
		t.Error("Quieter must keep the measurement with the cheaper base arm")
	}
}

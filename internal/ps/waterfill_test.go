package ps

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCappedTaskAloneUsesItsCap(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 2.0, 1.0) // 2 CPUs
	var done float64
	// A width-2 mega-job alone consumes both CPUs.
	r.SubmitCapped("mega", 100, 2.0, func() { done = e.Now() })
	e.Run()
	if !almost(done, 50) {
		t.Fatalf("mega-job finished at %v, want 50", done)
	}
}

func TestCapClampedToCapacity(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 2.0, 1.0)
	task := r.SubmitCapped("mega", 100, 99, nil)
	if task.Cap() != 2.0 {
		t.Fatalf("cap = %v, want clamped to 2", task.Cap())
	}
	e.Run()
}

func TestMegaJobYieldsToSerialJobsFairly(t *testing.T) {
	// 2 CPUs: a serial job (cap 1) and a mega-job (cap 2). Max-min: the
	// serial job gets 1, the mega-job the remaining 1.
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 2.0, 1.0)
	var tSerial, tMega float64
	r.Submit("serial", 100, func() { tSerial = e.Now() })
	r.SubmitCapped("mega", 100, 2.0, func() { tMega = e.Now() })
	e.Run()
	if !almost(tSerial, 100) {
		t.Fatalf("serial finished at %v, want 100 (full CPU)", tSerial)
	}
	// Mega: rate 1 until t=100 (100 work left... it had 100, did 100) —
	// both finish at 100.
	if !almost(tMega, 100) {
		t.Fatalf("mega finished at %v, want 100", tMega)
	}
}

func TestMegaJobSoaksLeftoverCapacity(t *testing.T) {
	// 3 CPUs: two serial jobs (1 each) + one mega-job (cap 3) → mega gets
	// the leftover 1 CPU while they run, then all 3 CPUs.
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 3.0, 1.0)
	var tMega float64
	r.Submit("s1", 50, nil)
	r.Submit("s2", 50, nil)
	r.SubmitCapped("mega", 200, 3.0, func() { tMega = e.Now() })
	e.Run()
	// Phase 1 (t ≤ 50): mega at rate 1 → 50 done. Phase 2: alone at rate
	// 3 → 150 left → 50 more seconds. Total 100.
	if !almost(tMega, 100) {
		t.Fatalf("mega finished at %v, want 100", tMega)
	}
}

func TestInvalidCapPanics(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("zero cap did not panic")
		}
	}()
	r.SubmitCapped("bad", 10, 0, nil)
}

func TestRateAccessor(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 2.0, 1.0)
	a := r.Submit("a", 100, nil)
	if !almost(a.Rate(), 1.0) {
		t.Fatalf("rate = %v, want 1", a.Rate())
	}
	for i := 0; i < 3; i++ {
		r.Submit("other", 100, nil)
	}
	if !almost(a.Rate(), 0.5) {
		t.Fatalf("rate with 4 tasks on 2 CPUs = %v, want 0.5", a.Rate())
	}
	e.Run()
}

// Property: water-filling is max-min fair — rates never exceed caps, the
// total never exceeds capacity, and capacity is fully used whenever some
// task is below its cap (work-conserving).
func TestPropertyWaterFillingInvariants(t *testing.T) {
	f := func(capsRaw []uint8, capacityRaw uint8) bool {
		if len(capsRaw) == 0 || len(capsRaw) > 8 {
			return true
		}
		capacity := 1 + float64(capacityRaw%8)
		e := sim.NewEngine()
		r := NewResource(e, "cpu", capacity, capacity)
		var tasks []*Task
		for i, c := range capsRaw {
			cap := 0.25 + float64(c%12)*0.25
			tasks = append(tasks, r.SubmitCapped(string(rune('a'+i)), 1e6, cap, nil))
		}
		var total float64
		anyBelowCap := false
		for _, task := range tasks {
			if task.Rate() > task.Cap()+eps {
				return false
			}
			if task.Rate() < task.Cap()-eps {
				anyBelowCap = true
			}
			total += task.Rate()
		}
		if total > capacity+eps {
			return false
		}
		// Work conservation: if anyone is throttled below its cap, the
		// whole capacity must be in use.
		if anyBelowCap && math.Abs(total-capacity) > eps {
			return false
		}
		// Max-min: a task below its cap must have rate ≥ every other
		// task's rate (no one smaller-capped starves it).
		for _, a := range tasks {
			if a.Rate() < a.Cap()-eps {
				for _, b := range tasks {
					if b.Rate() > a.Rate()+eps && b.Rate() > b.Cap()-eps {
						continue // b is at its (smaller) cap — fine
					}
					if b.Rate() > a.Rate()+eps {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// referenceRates is the water fill written out the long way: sort a copy
// of the tasks by (cap, submission order) and fill lowest cap first.
func referenceRates(capacity float64, tasks []*Task) map[*Task]float64 {
	sorted := append([]*Task(nil), tasks...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].cap < sorted[j].cap })
	rates := make(map[*Task]float64, len(sorted))
	remaining := capacity
	for i, t := range sorted {
		rate := math.Min(t.cap, remaining/float64(len(sorted)-i))
		rates[t] = rate
		remaining -= rate
	}
	return rates
}

// TestWaterFillMatchesReferenceSort checks, after every arrival and
// cancellation, that each task's rate equals the reference fill bit for
// bit — on resources whose tasks all share one cap (no sort) and on
// resources with mixed caps (a sorted copy).
func TestWaterFillMatchesReferenceSort(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 50; trial++ {
			e := sim.NewEngine()
			capacity := 1 + float64(rng.Intn(8))
			r := NewResource(e, "cpu", capacity, 1)
			var live []*Task // submission order
			check := func(step string) {
				want := referenceRates(capacity, live)
				for _, task := range live {
					if task.Rate() != want[task] {
						t.Fatalf("mixed=%v trial %d %s: task %s rate %v, reference %v",
							mixed, trial, step, task.Label(), task.Rate(), want[task])
					}
				}
			}
			for op := 0; op < 30; op++ {
				if len(live) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(live))
					live[i].Cancel()
					live = append(live[:i], live[i+1:]...)
					check("cancel")
					continue
				}
				cap := 1.0
				if mixed {
					cap = 0.5 * float64(1+rng.Intn(6))
				}
				live = append(live, r.SubmitCapped(string(rune('a'+op)), 1e9, cap, nil))
				check("submit")
			}
		}
	}
}

// TestTiesFireInSubmissionOrderAfterMiddleRemoval removes a task from
// the middle of the active list; the rest, finishing at one instant,
// must still complete in the order they were submitted.
func TestTiesFireInSubmissionOrderAfterMiddleRemoval(t *testing.T) {
	for _, caps := range [][]float64{{1, 1, 1, 1, 1}, {2, 1, 2, 1, 2}} {
		e := sim.NewEngine()
		r := NewResource(e, "cpu", 10, 2)
		var order []int
		var tasks []*Task
		for i, c := range caps {
			i := i
			tasks = append(tasks, r.SubmitCapped("t", 100*c, c, func() { order = append(order, i) }))
		}
		tasks[2].Cancel()
		e.Run()
		want := []int{0, 1, 3, 4}
		if len(order) != len(want) {
			t.Fatalf("caps %v: completion order %v, want %v", caps, order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("caps %v: completion order %v, want %v", caps, order, want)
			}
		}
		if first := tasks[0].Started() + 100; e.Now() != first {
			t.Fatalf("caps %v: tasks finished at %v, want one instant %v", caps, e.Now(), first)
		}
	}
}

package main

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Host speed calibration. The machines this benchmark runs on share
// cores and caches with other tenants, and their speed drifts by up to 2×
// within a minute. Every timed figure is therefore also divided by the
// time of a fixed calibration kernel measured beside it. The kernel is the
// benchmark's own code. It builds its data once and then allocates
// nothing, and it runs with garbage collection paused, so the
// collector's marking of the simulator's heap is not timed with it.

// A calibration slice runs calSliceIters iterations of the kernel;
// calSliceRefMS is its time on the reference host: the 2-vCPU 2 GHz Xeon
// VM the benchmark was tuned on, at the fastest speed observed there.
// Times are reported in reference-host units: measured × calSliceRefMS /
// mean slice time around the measurement. Wall times are scaled by the
// slices' wall time and CPU times by their CPU time.
const (
	calSliceIters = 2000
	calSliceRefMS = 1.22
)

// calibrator times sections and records the calibration run after each.
type calibrator struct {
	slices  []int     // slices run after section i
	wallMS  []float64 // their total wall time
	cpuMS   []float64 // their total CPU time
	sectMS  []float64 // section i's wall time
	sectCPU []float64 // section i's CPU time, seconds
	check   int
}

// section times run by wall clock and rusage CPU, then runs calibration
// slices for it: one per 20ms of it, at least one. Host speed fluctuates
// on millisecond scales, so a long section needs more samples for its
// mean to settle. A collection that run started is finished inside the
// section's own time, and none runs during the slices.
func (c *calibrator) section(run func()) {
	c0, t0 := cpuSeconds(), time.Now()
	run()
	gcPercent := debug.SetGCPercent(-1) // waits for any collection in progress
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	c.sectMS = append(c.sectMS, ms)
	c.sectCPU = append(c.sectCPU, cpuSeconds()-c0)

	n := max(int(ms/20), 1)
	c1, t1 := cpuSeconds(), time.Now()
	for i := 0; i < n; i++ {
		c.check += calK.slice()
	}
	c.wallMS = append(c.wallMS, float64(time.Since(t1).Nanoseconds())/1e6)
	c.cpuMS = append(c.cpuMS, (cpuSeconds()-c1)*1000)
	c.slices = append(c.slices, n)
	debug.SetGCPercent(gcPercent)
}

// factor converts raw wall times measured beside all the slices to
// reference-host time.
func (c *calibrator) factor() float64 { return c.wallFactor(0, len(c.slices)) }

// wallFactor and cpuFactor are the factors from the slices after
// sections [lo, hi) only, so a measurement is scaled by the host speed
// around it rather than over the whole run.
func (c *calibrator) wallFactor(lo, hi int) float64 { return c.around(c.wallMS, lo, hi) }
func (c *calibrator) cpuFactor(lo, hi int) float64  { return c.around(c.cpuMS, lo, hi) }

func (c *calibrator) around(sliceMS []float64, lo, hi int) float64 {
	lo, hi = max(lo, 0), min(hi, len(sliceMS))
	n, ms := 0, 0.0
	for i := lo; i < hi; i++ {
		n += c.slices[i]
		ms += sliceMS[i]
	}
	if n == 0 || ms <= 0 {
		return 1
	}
	return calSliceRefMS * float64(n) / ms
}

// scaledWallMS and scaledCPUS are section i's times in reference-host
// units, scaled by the slices within two sections of it.
func (c *calibrator) scaledWallMS(i int) float64 { return c.sectMS[i] * c.wallFactor(i-2, i+3) }
func (c *calibrator) scaledCPUS(i int) float64   { return c.sectCPU[i] * c.cpuFactor(i-2, i+3) }

// calEvent is an event of the kernel's queue, held by value.
type calEvent struct {
	when float64
	seq  int
	tag  int
}

func (a calEvent) before(b calEvent) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// calShare is a job's fair share in the kernel's rate sort.
type calShare struct {
	name       string
	rate, left float64
}

func cmpShare(a, b calShare) int {
	if a.rate != b.rate {
		if a.rate < b.rate {
			return -1
		}
		return 1
	}
	return strings.Compare(a.name, b.name)
}

// calShape gives the kernel dynamic method calls.
type calShape interface{ area(x float64) float64 }

type calSquare struct{ s float64 }
type calCircle struct{ r float64 }

func (q *calSquare) area(x float64) float64 { return q.s*q.s + x }
func (c *calCircle) area(x float64) float64 { return c.r*c.r*math.Pi - x }

// calK is built once, at start-up, so no timed section or slice
// allocates it.
var calK = newCalKernel()

// calKernel is the calibration kernel's data: a path tree like a run
// directory's outputs, an event heap, fair shares to sort, shapes to
// call through an interface, and buffers for listings and formatting.
type calKernel struct {
	rng    *rand.Rand
	paths  []string
	files  []string // paths[i]'s last segment, a separate string
	tree   map[string]map[string]int
	queue  []calEvent
	shares []calShare
	shapes []calShape
	names  []string
	buf    []byte
}

func newCalKernel() *calKernel {
	k := &calKernel{
		rng:    rand.New(rand.NewSource(1)),
		paths:  make([]string, 1024),
		files:  make([]string, 1024),
		tree:   make(map[string]map[string]int, 8),
		queue:  make([]calEvent, 0, 64),
		shares: make([]calShare, 16),
		names:  make([]string, 0, 1024),
		buf:    make([]byte, 0, 64),
	}
	for i := range k.paths {
		dir := "run" + strconv.Itoa(i%8)
		k.files[i] = strconv.Itoa(i) + "_salt.63"
		k.paths[i] = "/runs/" + dir + "/outputs/" + strconv.Itoa(i) + "_salt.63"
		if k.tree[dir] == nil {
			k.tree[dir] = make(map[string]int)
		}
		k.tree[dir][k.files[i]] = i
	}
	for i := range k.shares {
		k.shares[i].name = "job" + strconv.Itoa(i)
	}
	for i := 0; i < 64; i++ {
		if i%2 == 0 {
			k.shapes = append(k.shapes, &calSquare{float64(i)})
		} else {
			k.shapes = append(k.shapes, &calCircle{float64(i)})
		}
	}
	return k
}

// slice runs calSliceIters iterations of the kernel: the simulator's mix
// of event-heap pushes, pops and removals, path splitting with map
// lookups, deletes and inserts, number formatting, float math and
// interface calls, small sorts, and sorted directory listings. It
// allocates nothing, and returns a checksum so the work cannot be
// optimised away. The mix is wide on purpose: a tight loop over only the
// heap, path and sort parts slowed down with the host less than the
// simulator does, and left more variation in scaled CPU (README.md).
func (k *calKernel) slice() int {
	k.rng.Seed(1)
	k.queue = k.queue[:0]
	sum := 0
	for i := 0; i < calSliceIters; i++ {
		k.push(calEvent{when: k.rng.Float64() * 1000, seq: i, tag: i & 7})
		if len(k.queue) > 48 {
			sum += k.remove(0).tag
			k.remove(k.rng.Intn(len(k.queue)))
		}
		j := k.rng.Intn(len(k.paths))
		p := k.paths[j]
		dir := k.tree[pathSegment(p, 1)]
		file := pathSegment(p, 3)
		sum += dir[file]
		delete(dir, file)
		dir[k.files[j]] = j
		if strings.HasSuffix(p, ".63") {
			sum += strings.LastIndexByte(p, '/')
		}
		k.buf = strconv.AppendInt(k.buf[:0], int64(j), 10)
		k.buf = strconv.AppendFloat(k.buf, k.rng.Float64(), 'g', -1, 64)
		sum += len(k.buf)
		sum += int(k.shapes[i&63].area(math.Exp(-float64(i&15)) + math.Log1p(float64(j))))
		if i%8 == 0 {
			for s := range k.shares {
				k.shares[s].rate = k.rng.Float64()
				k.shares[s].left = math.Sqrt(k.shares[s].rate * 100)
			}
			slices.SortFunc(k.shares, cmpShare)
			sum += int(k.shares[0].left)
		}
		if i%100 == 0 {
			k.names = k.names[:0]
			for name := range dir {
				k.names = append(k.names, name)
			}
			slices.Sort(k.names)
			sum += len(k.names[0])
		}
	}
	return sum
}

// pathSegment returns the i-th '/'-separated segment of an absolute path
// ("/a/b" has segments 0 "a" and 1 "b") without allocating.
func pathSegment(p string, i int) string {
	start := 1
	for j := 1; j < len(p); j++ {
		if p[j] == '/' {
			if i == 0 {
				return p[start:j]
			}
			i--
			start = j + 1
		}
	}
	if i == 0 {
		return p[start:]
	}
	return ""
}

func (k *calKernel) push(ev calEvent) {
	k.queue = append(k.queue, ev)
	k.up(len(k.queue) - 1)
}

// remove takes the event at heap index i out of the queue.
func (k *calKernel) remove(i int) calEvent {
	q := k.queue
	ev, last := q[i], len(q)-1
	q[i] = q[last]
	k.queue = q[:last]
	if i < last {
		k.down(i)
		k.up(i)
	}
	return ev
}

func (k *calKernel) up(i int) {
	q := k.queue
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (k *calKernel) down(i int) {
	q := k.queue
	for {
		least := i
		if l := 2*i + 1; l < len(q) && q[l].before(q[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(q) && q[r].before(q[least]) {
			least = r
		}
		if least == i {
			return
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}

package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"unsafe"
)

// Span is one timed operation in the factory's hierarchy:
// campaign → day → run → {simulation, product task, rsync transfer,
// planner pass}, as Tracer.Spans exports it. Live spans are SpanRefs.
type Span struct {
	ID     int64
	Parent int64 // 0 = root
	Cat    string
	Name   string
	// Track groups spans onto one display row (a Chrome trace "thread"):
	// the node name for runs and tasks, "factory" for campaign/day spans,
	// the link name for transfers.
	Track string
	Start float64 // sim seconds
	End   float64 // sim seconds; the export time for unfinished spans
	Args  map[string]string

	finished bool
}

// Finished reports whether the span had ended when it was exported.
func (s Span) Finished() bool { return s.finished }

// Duration returns End-Start.
func (s Span) Duration() float64 { return s.End - s.Start }

// Arg reads an annotation ("" when absent).
func (s Span) Arg(key string) string { return s.Args[key] }

// SpanRef is a live span, handed out by Tracer.Begin and closed by
// EndSpan. The zero SpanRef (what a nil Tracer hands out) ignores all
// operations, so call sites need no telemetry checks.
type SpanRef struct {
	t  *Tracer
	id int64
}

// ID returns the span's id, 0 for the zero SpanRef.
func (s SpanRef) ID() int64 { return s.id }

// rec returns the span's record; s.t.mu must be held.
func (s SpanRef) rec() *spanRecord { return s.t.rec(s.id) }

// Finished reports whether the span has ended.
func (s SpanRef) Finished() bool {
	if s.t == nil {
		return false
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return !s.rec().open()
}

// Duration returns End-Start for a finished span, else the time elapsed
// so far.
func (s SpanRef) Duration() float64 {
	if s.t == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	r := s.rec()
	if r.open() {
		return s.t.clock() - r.start
	}
	return r.end - r.start
}

// SetArg attaches a key/value annotation (forecast name, day, bytes...).
func (s SpanRef) SetArg(key, value string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.setArg(s.id, key, value)
}

// Arg reads an annotation ("" when absent or on the zero SpanRef).
func (s SpanRef) Arg(key string) string {
	if s.t == nil {
		return ""
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.t.args[s.id][key]
}

// EndSpan closes the span at the tracer's current sim time. Ending an
// already-ended span or the zero SpanRef is a no-op.
func (s SpanRef) EndSpan() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if r := s.rec(); r.open() {
		r.end = s.t.clock()
	}
	s.t.mu.Unlock()
}

// spanRecord is a span as the tracer stores it. It holds no pointers —
// strings are interned ids and annotations live in a side table — so
// the garbage collector never scans the records, however many spans a
// campaign opens. A span's id is its position in creation order plus
// one.
type spanRecord struct {
	start, end       float64 // end is NaN while the span is open
	parent           uint32
	cat, name, track uint32
}

func (r *spanRecord) open() bool { return math.IsNaN(r.end) }

// Tracer records sim-time spans. Create with NewTracer; a nil Tracer
// hands out zero SpanRefs. Safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	clock func() float64
	// recs holds the records in fixed chunks of recChunk, so recording
	// a span never copies the ones before it.
	recs  [][]spanRecord
	n     int               // spans recorded
	strs  []string          // interned strings, by id
	strID map[string]uint32 // interned ids, by string
	// recent short-cuts intern for string values seen before. Hot callers
	// pass the same string on every span (a product's task name, a node's
	// name), and in a running campaign a map probe that hashes and
	// compares the bytes costs several cache misses.
	recent [64]internEntry
	args   map[int64]map[string]string
}

// internEntry is a recent interned string, keyed by its data pointer.
type internEntry struct {
	s  string
	id uint32
}

// NewTracer returns a tracer reading sim time from clock (nil clock
// pins time at 0 until SetClock installs a real one).
func NewTracer(clock func() float64) *Tracer {
	// "" is id 0, which is also what a zero recent entry answers for it.
	t := &Tracer{strs: []string{""}, strID: map[string]uint32{"": 0}}
	t.SetClock(clock)
	return t
}

// SetClock installs the sim-time source, typically Engine.Now. The
// factory wires this automatically for the Telemetry it is given.
func (t *Tracer) SetClock(clock func() float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	t.clock = clock
	t.mu.Unlock()
}

// recChunk is the record chunk length.
const recChunk = 1024

// rec returns span id's record; t.mu must be held.
func (t *Tracer) rec(id int64) *spanRecord {
	i := int(id - 1)
	return &t.recs[i/recChunk][i%recChunk]
}

// intern returns s's string id; t.mu must be held.
func (t *Tracer) intern(s string) uint32 {
	p := unsafe.StringData(s)
	e := &t.recent[(uintptr(unsafe.Pointer(p))>>4^uintptr(len(s)))%uintptr(len(t.recent))]
	if unsafe.StringData(e.s) == p && len(e.s) == len(s) {
		return e.id
	}
	id, ok := t.strID[s]
	if !ok {
		id = uint32(len(t.strs))
		t.strs = append(t.strs, s)
		t.strID[s] = id
	}
	*e = internEntry{s, id}
	return id
}

// setArg records an annotation; t.mu must be held.
func (t *Tracer) setArg(id int64, key, value string) {
	m := t.args[id]
	if m == nil {
		if t.args == nil {
			t.args = make(map[int64]map[string]string)
		}
		m = make(map[string]string, 4)
		t.args[id] = m
	}
	m[key] = value
}

// Begin opens a span under parent (the zero SpanRef for a root span) at
// the current sim time. A span with no track takes its parent's.
func (t *Tracer) Begin(cat, name, track string, parent SpanRef) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.mu.Lock()
	r := spanRecord{
		start:  t.clock(),
		end:    math.NaN(),
		parent: uint32(parent.id),
		cat:    t.intern(cat),
		name:   t.intern(name),
	}
	if track == "" && parent.t == t && parent.id > 0 {
		r.track = parent.rec().track
	} else {
		r.track = t.intern(track)
	}
	if t.n%recChunk == 0 {
		t.recs = append(t.recs, make([]spanRecord, recChunk))
	}
	t.recs[t.n/recChunk][t.n%recChunk] = r
	t.n++
	s := SpanRef{t: t, id: int64(t.n)}
	t.mu.Unlock()
	return s
}

// EndOpen closes every unfinished span at the current sim time — called
// once when a campaign stops so interrupted runs still export with their
// observed extent.
func (t *Tracer) EndOpen() {
	if t == nil {
		return
	}
	t.mu.Lock()
	now := t.clock()
	for id := int64(1); id <= int64(t.n); id++ {
		if r := t.rec(id); r.open() {
			r.end = now
			t.setArg(id, "interrupted", "true")
		}
	}
	t.mu.Unlock()
}

// Len returns the number of spans recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Spans returns a copy of all recorded spans in creation order.
// Unfinished spans are reported with End equal to the current sim time.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	out := make([]Span, t.n)
	for i := range out {
		id := int64(i + 1)
		r := t.rec(id)
		c := Span{
			ID:       id,
			Parent:   int64(r.parent),
			Cat:      t.strs[r.cat],
			Name:     t.strs[r.name],
			Track:    t.strs[r.track],
			Start:    r.start,
			End:      r.end,
			finished: !r.open(),
		}
		if r.open() {
			c.End = now
		}
		if args := t.args[id]; len(args) > 0 {
			c.Args = make(map[string]string, len(args))
			for k, v := range args {
				c.Args[k] = v
			}
		}
		out[i] = c
	}
	return out
}

// chromeEvent is one Chrome trace-event object. ph "X" is a complete
// event (ts + dur); ph "M" is metadata (thread names).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace renders all spans as Chrome trace-event JSON, loadable
// in chrome://tracing or https://ui.perfetto.dev. Sim seconds map to
// trace microseconds; each Track becomes a named thread.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()

	// Assign stable thread ids per track, in first-appearance order.
	tids := make(map[string]int)
	var tracks []string
	for _, s := range spans {
		if _, ok := tids[s.Track]; !ok {
			tids[s.Track] = len(tids) + 1
			tracks = append(tracks, s.Track)
		}
	}
	sort.Strings(tracks)
	for i, track := range tracks {
		tids[track] = i + 1
	}

	events := make([]chromeEvent, 0, len(spans)+len(tracks))
	for _, track := range tracks {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[track],
			Args: map[string]string{"name": track},
		})
	}
	for _, s := range spans {
		args := s.Args
		if args == nil {
			args = map[string]string{}
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			Ts:   s.Start * 1e6,
			Dur:  (s.End - s.Start) * 1e6,
			Pid:  1,
			Tid:  tids[s.Track],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		TimeUnit    string        `json:"displayTimeUnit"`
	}{events, "ms"})
}

// Telemetry bundles the two collectors every instrumented component
// accepts: a metrics registry and a span tracer. A nil *Telemetry (and
// nil fields) disables collection with no call-site branching.
type Telemetry struct {
	Metrics *Registry
	Tracer  *Tracer
}

// New returns a Telemetry with a fresh registry and tracer. The tracer's
// clock starts pinned at 0; components owning a sim engine (factory
// campaigns, dataflow experiments) install their clock via SetClock.
func New() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Tracer: NewTracer(nil)}
}

// SetClock installs the sim-time source on the tracer (nil-safe).
func (t *Telemetry) SetClock(clock func() float64) {
	if t == nil {
		return
	}
	t.Tracer.SetClock(clock)
}

// Registry returns the metrics registry (nil on nil Telemetry), so
// instrumented components can write `tel.Registry().Counter(...)`
// without a nil check.
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.Metrics
}

// Trace returns the tracer (nil on nil Telemetry).
func (t *Telemetry) Trace() *Tracer {
	if t == nil {
		return nil
	}
	return t.Tracer
}

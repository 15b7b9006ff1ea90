package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/factory"
	"repro/internal/forecast"
	"repro/internal/logs"
	"repro/internal/netsim"
	"repro/internal/ondemand"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// instance is one prepared simulation: setup has built it and scheduled
// its work, the benchmark steps its engine one simulated day at a time,
// finish runs what remains, and outcome (untimed) gathers what to check.
type instance interface {
	engine() *sim.Engine
	days() int
	finish()
	outcome() *outcome
}

// workload names a set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// seeded workloads generate their inputs from the seed; the others
	// accept it and ignore it.
	seeded bool
	// setup generates the inputs for seed and builds the simulation. It
	// is exactly what setup_s times.
	setup func(seed int64) (instance, error)
}

var workloads = []workload{
	{
		name: "fig8",
		why:  "the paper's 76-day Tillamook campaign with WIP carry-over; kernel time splits evenly between workflow dispatch and ps re-timing",
		setup: func(int64) (instance, error) {
			return newCampaign(factory.Figure8Scenario())
		},
	},
	{
		name:   "growth",
		seeded: true,
		why:    "saturated growth from 10 to 36 forecasts over 45 days; many tasks per node, so ps cancels and vfs lookups dominate",
		setup: func(seed int64) (instance, error) {
			return newCampaign(growthConfig(seed))
		},
	},
	{
		name:   "public-edge",
		seeded: true,
		why:    "long-horizon serving edge with rsync over netsim and no product engine; the vfs walk, not lookups, dominates",
		setup: func(seed int64) (instance, error) {
			return newEdge(edgeConfig(seed, edgeDays))
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what a finished instance hands to the checker and to the
// traced run's layer metrics.
type outcome struct {
	// records maps a record key to its canonical text; the checker
	// compares their hashes with the reference.
	records map[string]string
	// violations lists broken invariants, one line each.
	violations []string
	invariants int // invariants checked

	fs          *vfs.FS // the filesystem whose lookups or walks the run exercised
	bytesMoved  float64
	requests    int64
	renders     int64
	guardChecks int64
}

func (o *outcome) check(ok bool, format string, args ...any) {
	o.invariants++
	if !ok {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// ---- campaigns ----

type campaignRun struct {
	cfg                 factory.Config
	c                   *factory.Campaign
	launched, completed int
	results             []factory.RunResult
}

func newCampaign(cfg factory.Config) (*campaignRun, error) {
	c, err := factory.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &campaignRun{cfg: cfg, c: c}
	c.AddRunLogHook(func(rec *logs.RunRecord) {
		switch rec.Status {
		case logs.StatusRunning:
			r.launched++
		case logs.StatusCompleted:
			r.completed++
		}
	})
	c.Prepare()
	return r, nil
}

func (r *campaignRun) engine() *sim.Engine { return r.c.Engine() }
func (r *campaignRun) days() int           { return r.c.Days() }

func (r *campaignRun) finish() { r.results = r.c.Finish() }

func (r *campaignRun) outcome() *outcome {
	o := &outcome{records: campaignRecords(r.results), fs: r.c.FS()}
	finished := 0
	for _, res := range r.results {
		if res.Finished {
			finished++
		}
	}
	want := plannedLaunches(r.cfg)
	missing := 0
	for key := range want {
		if _, ok := o.records[key]; !ok {
			missing++
		}
	}
	n := len(r.results)
	o.check(len(o.records) == n, "duplicate run records: %d keys for %d results", len(o.records), n)
	o.check(n == len(want) && missing == 0 && r.launched == n,
		"the config plans %d launches; %d results (%d planned ones missing), %d launch logs", len(want), n, missing, r.launched)
	o.check(r.completed == finished, "%d completion logs but %d finished runs", r.completed, finished)
	return o
}

// plannedLaunches lists, as "forecast/day" keys, the run every forecast
// present on each campaign day launches that day: the initial forecasts,
// plus those added on a node that exists, less those removed. Events
// apply in config order at midnight, before the day's launches.
func plannedLaunches(cfg factory.Config) map[string]bool {
	start := max(cfg.StartDay, 1)
	nodes := map[string]bool{}
	specs := cfg.Nodes
	if len(specs) == 0 {
		specs = factory.DefaultNodes()
	}
	for _, ns := range specs {
		nodes[ns.Name] = true
	}
	var order []string
	for _, a := range cfg.Forecasts {
		order = append(order, a.Spec.Name)
	}
	want := map[string]bool{}
	for day := start; day < start+cfg.Days; day++ {
		for _, ev := range cfg.Events {
			if ev.EventDay() != day {
				continue
			}
			switch e := ev.(type) {
			case factory.AddNode:
				nodes[e.Node.Name] = true
			case factory.AddForecast:
				if nodes[e.Node] && !slices.Contains(order, e.Spec.Name) {
					order = append(order, e.Spec.Name)
				}
			case factory.RemoveForecast:
				order = slices.DeleteFunc(order, func(n string) bool { return n == e.Forecast })
			}
		}
		for _, name := range order {
			want[fmt.Sprintf("%s/%d", name, day)] = true
		}
	}
	return want
}

// campaignRecords keys every RunResult by forecast and day.
func campaignRecords(results []factory.RunResult) map[string]string {
	out := make(map[string]string, len(results))
	for _, res := range results {
		out[fmt.Sprintf("%s/%d", res.Forecast, res.Day)] = fmt.Sprintf(
			"node=%s start=%s end=%s wall=%s steps=%d mesh=%s/%d code=%s/%s finished=%t dropped=%t",
			res.Node, ftoa(res.Start), ftoa(res.End), ftoa(res.Walltime), res.Timesteps,
			res.MeshName, res.MeshSides, res.Code.Name, ftoa(res.Code.CostFactor), res.Finished, res.Dropped)
	}
	return out
}

// growthConfig is factory.GrowthScenario for seed 0. Other seeds keep the
// scenario's node additions, batch days and batch sizes, and deal each
// batch's forecasts the batch's own values: mesh shapes (timesteps with
// sides), start offsets and priorities are shuffled independently within
// the batch. Which node carries the heavy runs, and when they overlap,
// changes with the seed; the work each batch adds does not.
func growthConfig(seed int64) factory.Config {
	cfg := factory.GrowthScenario()
	if seed == 0 {
		return cfg
	}
	batches := map[int][]*forecast.Spec{}
	for _, a := range cfg.Forecasts {
		batches[0] = append(batches[0], a.Spec)
	}
	for _, ev := range cfg.Events {
		if add, ok := ev.(factory.AddForecast); ok {
			batches[add.Day] = append(batches[add.Day], add.Spec)
		}
	}
	days := make([]int, 0, len(batches))
	for d := range batches {
		days = append(days, d)
	}
	sort.Ints(days)
	rng := rand.New(rand.NewSource(seed))
	for _, d := range days {
		specs := batches[d]
		n := len(specs)
		shapes, offsets, prios := rng.Perm(n), rng.Perm(n), rng.Perm(n)
		type shape struct {
			steps, sides, prio int
			offset             float64
		}
		orig := make([]shape, n)
		for i, s := range specs {
			orig[i] = shape{s.Timesteps, s.Mesh.Sides, s.Priority, s.StartOffset}
		}
		for i, s := range specs {
			s.Timesteps, s.Mesh.Sides = orig[shapes[i]].steps, orig[shapes[i]].sides
			s.StartOffset, s.Priority = orig[offsets[i]].offset, orig[prios[i]].prio
		}
	}
	return cfg
}

// ---- public edge ----

// edgeDays is the public-edge horizon: long enough that the rsync walk
// over the growing /products tree dominates.
const edgeDays = 120

// edgeForecasts are the storm products' forecasts, in catalog order.
var edgeForecasts = []string{"columbia", "fraser", "grays", "willapa", "yaquina"}

// edgeConfig is the serving-storm setup (1.2M users, one plot per
// forecast, a late day and columbia flash crowds) over days days, with
// every default spelled out so newEdge composes exactly what
// serving.RunScenario runs. Seed 0 puts the storm and the late forecast
// on day 1 and repeats the storm every tenth day; other seeds pick the
// late day, the focused forecast, and each ten-day window's storm day
// and multiplier.
func edgeConfig(seed int64, days int) serving.ScenarioConfig {
	weights := map[string]float64{"columbia": 10, "willapa": 6, "grays": 4, "fraser": 3, "yaquina": 2}
	var products []serving.Product
	for _, f := range edgeForecasts {
		products = append(products, serving.Product{Name: f + "/plot", Forecast: f, RenderWork: 300,
			Perish: 86400, Weight: weights[f]})
	}
	lateDay, focus := 1, "columbia"
	var rng *rand.Rand
	if seed != 0 {
		rng = rand.New(rand.NewSource(seed))
		lateDay = 1 + rng.Intn(max(days-1, 1))
		focus = edgeForecasts[rng.Intn(len(edgeForecasts))]
	}
	var storms []serving.Storm
	for w := 0; w*10 < days; w++ {
		day, mult := w*10+1, 6.0
		if rng != nil {
			day, mult = w*10+rng.Intn(10), 3+5*rng.Float64()
		}
		if day >= days {
			continue
		}
		storms = append(storms, serving.Storm{Start: float64(day)*86400 + 7*3600, Duration: 5 * 3600,
			Multiplier: mult, Forecast: focus})
	}
	return serving.ScenarioConfig{
		Days:          days,
		Users:         1_200_000,
		Products:      products,
		Load:          serving.LoadConfig{Storms: storms},
		PublishOffset: 6 * 3600,
		LateDay:       lateDay,
		LateBy:        3 * 3600,
		ProductBytes:  8 << 20,
		Bandwidth:     12.5e6,
		RsyncInterval: 300,
		StockWork:     3 * 3600,
		StockDeadline: 4 * 3600,
	}
}

// edgeRun is serving.RunScenario taken apart so the benchmark can step it
// one day at a time and count the made-to-stock guard's oracle calls.
type edgeRun struct {
	cfg          serving.ScenarioConfig
	eng          *sim.Engine
	srcFS, dstFS *vfs.FS
	link         *netsim.Link
	rsync        *netsim.Rsync
	edge         *serving.Edge
	gen          *serving.Generator

	completions, deadlines map[string]float64
	guardChecks            int64
	published              int64 // bytes appended on the factory side
	res                    *serving.ScenarioResult
}

// newEdge composes the scenario from public constructors in the same
// order, with the same labels and callbacks, as serving.RunScenario.
func newEdge(cfg serving.ScenarioConfig) (*edgeRun, error) {
	eng := sim.NewEngine()
	cl := cluster.New(eng)
	server := cl.AddNode("public-server", 2, 1.0)
	sched := eng.Scope("scenario")
	r := &edgeRun{
		cfg: cfg, eng: eng,
		srcFS: vfs.New(eng.Now), dstFS: vfs.New(eng.Now),
		link:        netsim.NewLink(eng, "wan", cfg.Bandwidth),
		completions: make(map[string]float64),
		deadlines:   make(map[string]float64),
	}
	stockJobs := make(map[string]*cluster.Job)
	serverInfo := []core.NodeInfo{{Name: server.Name(), CPUs: server.CPUs(), Speed: server.Speed()}}

	type target struct {
		product string
		cycle   int
	}
	expected := make(map[string]target, cfg.Days*len(cfg.Products))
	observer := func(t float64, path string, destSize int64) {
		if destSize >= cfg.ProductBytes {
			if tg, ok := expected[path]; ok {
				r.edge.Publish(tg.product, tg.cycle, t)
				delete(expected, path)
			}
		}
	}
	r.rsync = netsim.NewRsync(eng, r.srcFS, r.dstFS, r.link, cfg.RsyncInterval, []string{"/products"}, observer)

	for d := 0; d < cfg.Days; d++ {
		d := d
		pub := float64(d)*86400 + cfg.PublishOffset
		if d == cfg.LateDay && cfg.LateBy > 0 {
			pub += cfg.LateBy
		}
		for _, p := range cfg.Products {
			path := fmt.Sprintf("/products/%s/day%d", p.Name, d)
			expected[path] = target{product: p.Name, cycle: d}
			sched.At(pub, func() {
				if err := r.srcFS.Append(path, cfg.ProductBytes); err != nil {
					panic(err)
				}
				r.published += cfg.ProductBytes
			})
		}
		name := fmt.Sprintf("stock-d%d", d)
		sched.At(pub, func() {
			r.deadlines[name] = eng.Now() + cfg.StockDeadline
			stockJobs[name] = server.Submit("stock:"+name, cfg.StockWork, func() {
				r.completions[name] = eng.Now()
				delete(stockJobs, name)
			})
		})
	}

	var stockState func(now float64) *ondemand.State
	if !cfg.NoStockGuard {
		stockState = func(now float64) *ondemand.State {
			r.guardChecks++
			plan := &core.Plan{Nodes: serverInfo, Assign: map[string]string{}}
			for name, job := range stockJobs {
				plan.Runs = append(plan.Runs, core.Run{
					Name: name, Work: job.Remaining(), Start: now, Deadline: r.deadlines[name],
				})
				plan.Assign[name] = server.Name()
			}
			return &ondemand.State{
				Now:    now,
				Nodes:  serverInfo,
				Stock:  plan,
				Active: map[string]int{server.Name(): server.Active()},
			}
		}
	}

	var err error
	r.edge, err = serving.New(serving.Config{
		Engine:     eng,
		Server:     server,
		Products:   cfg.Products,
		MaxRenders: cfg.MaxRenders,
		MaxQueue:   cfg.MaxQueue,
		HotRate:    cfg.HotRate,
		Stock:      stockState,
	})
	if err != nil {
		return nil, err
	}
	load := cfg.Load
	load.Users = cfg.Users
	if r.gen, err = serving.NewGenerator(r.edge, load); err != nil {
		return nil, err
	}
	r.gen.Start(float64(cfg.Days) * 86400)
	r.rsync.Start()
	return r, nil
}

func (r *edgeRun) engine() *sim.Engine { return r.eng }
func (r *edgeRun) days() int           { return r.cfg.Days }

// result stops rsync and gathers what serving.RunScenario returns.
func (r *edgeRun) result() *serving.ScenarioResult {
	r.eng.RunUntil(float64(r.cfg.Days) * 86400)
	r.rsync.Stop()
	res := &serving.ScenarioResult{
		Stats:           r.edge.Stats(),
		TotalRequests:   r.gen.Total(),
		StockCompletion: r.completions,
		StockDeadlines:  r.deadlines,
		Renders:         r.edge.RenderCounts(),
		Demand:          r.edge.ForecastDemand(),
		Edge:            r.edge,
	}
	for name, dl := range r.deadlines {
		c, done := r.completions[name]
		if !done || c > dl {
			res.StockLate = append(res.StockLate, name)
		}
	}
	sort.Strings(res.StockLate)
	return res
}

func (r *edgeRun) finish() { r.res = r.result() }

func (r *edgeRun) outcome() *outcome {
	res := r.res
	st := res.Stats
	o := &outcome{
		records: make(map[string]string), fs: r.srcFS, bytesMoved: r.link.BytesMoved(),
		requests: st.Requests, renders: st.Renders, guardChecks: r.guardChecks,
	}
	tiers := make([]string, 0, len(st.ShedByTier))
	for t, n := range st.ShedByTier {
		tiers = append(tiers, fmt.Sprintf("%s:%d", t, n))
	}
	sort.Strings(tiers)
	o.records["stats"] = fmt.Sprintf("req=%d total=%d hits=%d misses=%d coalesced=%d renders=%d shed=%d stale=%d unknown=%d p50=%s p99=%s max=%s mean=%s wait=%s active=%d queued=%d tiers=%s",
		st.Requests, res.TotalRequests, st.Hits, st.Misses, st.Coalesced, st.Renders, st.Shed, st.ServedStale, st.Unknown,
		ftoa(st.StalenessP50), ftoa(st.StalenessP99), ftoa(st.StalenessMax), ftoa(st.MeanStaleness), ftoa(st.MeanWait),
		st.ActiveRenders, st.QueuedRenders, strings.Join(tiers, ","))
	for _, p := range st.Products {
		var cycles []string
		for k, n := range res.Renders {
			if name, cycle, _ := strings.Cut(k, "@"); name == p.Product {
				cycles = append(cycles, cycle+":"+strconv.FormatInt(n, 10))
			}
		}
		sort.Strings(cycles)
		o.records["product/"+p.Product] = fmt.Sprintf("req=%d hits=%d misses=%d renders=%d shed=%d stale=%d rate=%s cycle=%d hot=%t demand=%d by-cycle=%s",
			p.Requests, p.Hits, p.Misses, p.Renders, p.Shed, p.ServedStale, ftoa(p.DemandRate), p.Cycle, p.Hot,
			res.Demand[p.Forecast], strings.Join(cycles, ","))
	}
	late := make(map[string]bool, len(res.StockLate))
	for _, name := range res.StockLate {
		late[name] = true
	}
	for name, dl := range res.StockDeadlines {
		c, done := res.StockCompletion[name]
		o.records["stock/"+name] = fmt.Sprintf("deadline=%s done=%t at=%s late=%t", ftoa(dl), done, ftoa(c), late[name])
	}
	// The made-to-stock guard admits a render only if every stock job
	// still meets its deadline.
	o.check(len(res.StockLate) == 0, "stock jobs late despite the guard: %v", res.StockLate)
	o.check(len(res.StockDeadlines) == r.cfg.Days, "%d stock jobs submitted over %d days", len(res.StockDeadlines), r.cfg.Days)
	o.check(res.TotalRequests == st.Requests, "generator issued %d requests, edge counted %d", res.TotalRequests, st.Requests)
	o.check(o.bytesMoved == float64(r.published), "link moved %s bytes, factory published %d", ftoa(o.bytesMoved), r.published)
	o.check(r.dstFS.TreeSize("/products") == r.published, "server holds %d bytes, factory published %d",
		r.dstFS.TreeSize("/products"), r.published)
	return o
}

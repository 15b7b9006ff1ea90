// Command factory runs a multi-day production campaign of the forecast
// factory and prints per-day walltimes, the event log, and node
// utilization — the raw material behind Figures 8 and 9.
//
// With -monitor-addr it also serves the control room while the campaign
// replays: a live HTML dashboard, Prometheus /metrics, and the JSON
// status/alert APIs. Combine with -replay-rate to slow the replay to an
// observable pace.
//
// With -harvest-interval the continuous harvest pipeline runs alongside
// the campaign: every N sim-hours an incremental pass crawls the run
// tree into the statistics database under watermark control, and the
// control room gains the harvest panel plus data-quality alerts
// (harvest staleness, quarantine-rate spikes).
//
// With -usage-interval the utilization observatory samples per-node CPU
// shares into a timeline (persisted to the node_usage table), detects
// contention and idle windows, renders the nodes×time heatmap, and —
// combined with -monitor-addr — serves /api/utilization, the dashboard
// heatmap panel, and saturation/imbalance/drift alerts. -pprof mounts
// Go profiling endpoints on the control-room server.
//
// With -serving-users the campaign's products go public: a serving edge
// (TTL cache keyed product+cycle, request coalescing, deadline-aware
// load shedding) runs on an added public-server node, every completed
// run publishes its forecast's products to it, and a diurnal crowd of
// that many simulated users hits the edge for the whole campaign. The
// end-of-campaign report shows hit rate, staleness-at-delivery
// percentiles, the per-product breakdown, and the demand-feedback
// priority table; with -monitor-addr the dashboard gains the live
// serving panel (/api/serving).
//
// Usage:
//
//	factory [-scenario fig8|fig9|growth] [-config file.json] [-forecast name]
//	        [-days n] [-snapshot hours] [-metrics-out file] [-trace-out file]
//	        [-monitor-addr host:port] [-replay-rate simsec-per-sec]
//	        [-harvest-interval hours] [-runs-dir dir]
//	        [-usage-interval minutes] [-pprof] [-serving-users n]
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/engineprof"
	"repro/internal/factory"
	"repro/internal/forensics"
	"repro/internal/harvest"
	"repro/internal/logs"
	"repro/internal/monitor"
	"repro/internal/plot"
	"repro/internal/serving"
	"repro/internal/spc"
	"repro/internal/statsdb"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

func main() {
	scenario := flag.String("scenario", "fig8", "campaign scenario: fig8, fig9, or growth")
	forecastName := flag.String("forecast", "", "forecast to print the walltime series for (default: the scenario's subject)")
	days := flag.Int("days", 0, "override the number of days simulated")
	snapshotAt := flag.Float64("snapshot", 0, "pause at this many hours into the campaign and show the factory monitor")
	configPath := flag.String("config", "", "load the campaign from a JSON factory description instead of a built-in scenario")
	metricsOut := flag.String("metrics-out", "", "write campaign metrics in Prometheus text format to this file")
	traceOut := flag.String("trace-out", "", "write the campaign trace as Chrome trace-event JSON to this file")
	monitorAddr := flag.String("monitor-addr", "", "serve the control room (dashboard, /metrics, status and alert APIs) on this address while the campaign replays")
	replayRate := flag.Float64("replay-rate", 0, "pace the replay at this many sim-seconds per wall-second (0 = full speed; needs -monitor-addr to be observable)")
	harvestInterval := flag.Float64("harvest-interval", 0, "run an incremental harvest pass every this many sim-hours (0 = off)")
	runsDir := flag.String("runs-dir", "", "mirror every run log into this real directory tree (harvestable later with foreman -harvest)")
	usageInterval := flag.Float64("usage-interval", 0, "sample per-node CPU shares into the utilization timeline every this many sim-minutes (0 = off)")
	pprofOn := flag.Bool("pprof", false, "mount Go profiling endpoints under /debug/pprof/ on the control-room server")
	engineProf := flag.Bool("engineprof", false, "attach the kernel profiler and print the per-label hotspot summary at campaign end (implied by -monitor-addr, which serves the live report at /api/engine)")
	servingUsers := flag.Int("serving-users", 0, "serve the campaign's products from a public edge (TTL cache, coalescing, load shedding) to this many simulated users on an added public-server node (0 = off)")
	flag.Parse()

	var cfg factory.Config
	subject := ""
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg, err = config.Parse(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if len(cfg.Forecasts) == 0 {
			fmt.Fprintln(os.Stderr, "config has no forecasts")
			os.Exit(1)
		}
		subject = cfg.Forecasts[0].Spec.Name
		*scenario = *configPath
	} else {
		switch *scenario {
		case "fig8":
			cfg = factory.Figure8Scenario()
			subject = "forecast-tillamook"
		case "fig9":
			cfg = factory.Figure9Scenario()
			subject = "forecasts-dev"
		case "growth":
			cfg = factory.GrowthScenario()
			subject = "forecast-g00"
		default:
			fmt.Fprintf(os.Stderr, "unknown scenario %q (fig8, fig9, or growth)\n", *scenario)
			os.Exit(2)
		}
	}
	if *forecastName != "" {
		subject = *forecastName
	}
	if *days > 0 {
		cfg.Days = *days
		var kept []factory.Event
		for _, e := range cfg.Events {
			if e.EventDay() < cfg.StartDay+cfg.Days {
				kept = append(kept, e)
			}
		}
		cfg.Events = kept
	}

	fmt.Printf("campaign %s: days %d..%d, %d forecasts, %d nodes\n",
		*scenario, max(cfg.StartDay, 1), max(cfg.StartDay, 1)+cfg.Days-1,
		len(cfg.Forecasts), len(nodesOf(cfg)))
	for _, e := range cfg.Events {
		fmt.Printf("  event: %s\n", e)
	}

	var tel *telemetry.Telemetry
	if *metricsOut != "" || *traceOut != "" || *monitorAddr != "" || *harvestInterval > 0 || *usageInterval > 0 {
		tel = telemetry.New()
		cfg.Telemetry = tel
	}

	c, err := factory.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *runsDir != "" {
		// Mirror every run-log write into a real directory tree, laid out
		// exactly like the campaign's virtual one, so a later
		// `foreman -harvest <dir>` picks up where the campaign left off.
		c.AddRunLogHook(func(r *logs.RunRecord) {
			dir := filepath.Join(*runsDir, r.Forecast, fmt.Sprintf("%d-%03d", r.Year, r.Day))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "runs-dir:", err)
				return
			}
			if err := os.WriteFile(filepath.Join(dir, logs.LogFile), []byte(logs.Format(r)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "runs-dir:", err)
			}
		})
	}

	// The statistics database shared by the harvest pipeline and the
	// utilization observatory: run records land in runs, the sampler's
	// timeline in node_usage, joinable on node and time overlap.
	statsDB := statsdb.NewDB()

	// The kernel profiler rides along whenever asked for explicitly or
	// whenever the control room serves (so /api/engine always answers);
	// the bench holds its overhead under 5% of the replay.
	var kprof *engineprof.Profiler
	if *engineProf || *monitorAddr != "" {
		kprof = engineprof.New()
		c.Engine().SetProbe(kprof)
	}

	// Continuous harvest: an incremental pass over the run tree every
	// interval, journalled beside it, feeding the statistics database the
	// provenance queries and data-quality alerts read from.
	var harv *harvest.Harvester
	if *harvestInterval > 0 {
		harv, err = harvest.New(c.FS(), statsDB,
			harvest.NewVFSJournal(c.FS(), "/harvest/journal.jsonl"),
			harvest.Options{Telemetry: tel, Clock: c.Engine().Now})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		harvest.Schedule(c.Engine(), harv, *harvestInterval*3600, c.Horizon(), func(err error) {
			fmt.Fprintln(os.Stderr, "harvest:", err)
		})
	}

	// Utilization observatory: the sampler subscribes to cluster job
	// lifecycle events and buckets per-node CPU shares on the interval.
	var samp *usage.Sampler
	if *usageInterval > 0 {
		samp = usage.NewSampler(c.Cluster(), usage.Options{
			Interval:  *usageInterval * 60,
			Telemetry: tel,
		})
		samp.Start(c.Horizon())
	}

	// Public serving edge: the campaign's products go public on a
	// dedicated server node. Each completed run publishes its forecast's
	// products (run-log hook → PublishForecast), invalidating the cached
	// copies of the previous cycle, while the load generator replays the
	// user crowd against the edge for the whole campaign.
	var edge *serving.Edge
	var servingBase map[string]int
	if *servingUsers > 0 {
		pub := c.Cluster().AddNode("public-server", 2, 1)
		servingBase = make(map[string]int, len(cfg.Forecasts))
		for _, a := range cfg.Forecasts {
			servingBase[a.Spec.Name] = a.Spec.Priority
		}
		scfg := serving.Config{
			Engine:   c.Engine(),
			Server:   pub,
			Products: serving.DefaultProducts(servingBase),
		}
		if tel != nil {
			scfg.Telemetry = tel.Registry()
		}
		edge, err = serving.New(scfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		c.AddRunLogHook(func(r *logs.RunRecord) {
			if r.End <= 0 {
				return
			}
			edge.PublishForecast(r.Forecast, r.Day-c.StartDay(), r.End)
		})
		gen, err := serving.NewGenerator(edge, serving.LoadConfig{Users: *servingUsers})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		gen.Start(c.Horizon())
	}

	// Control room: attach the monitor before the campaign runs, serve it
	// from a wall-clock goroutine while the simulation replays.
	var mon *monitor.Monitor
	var spcObs *spc.Observatory
	var servedAddr net.Addr
	if *monitorAddr != "" {
		opts := monitor.Options{}
		if harv != nil {
			// Data-quality rules over the harvest pipeline's own metrics:
			// page when the harvester's heartbeat goes quiet for two
			// intervals, and when quarantines spike (bad logs arriving
			// faster than one per sim-hour means something upstream broke).
			opts.Staleness = []monitor.StalenessRule{{
				Name: "harvest_stale", Metric: harvest.MetricLastPassTime,
				MaxAge: 2 * *harvestInterval * 3600, Severity: monitor.SevCritical,
			}}
			opts.Rates = []monitor.RateRule{{
				Name: "quarantine_spike", Metric: harvest.MetricQuarantinedTotal,
				PerHourAbove: 1, Severity: monitor.SevWarning,
			}}
		}
		if samp != nil {
			// Capacity rules over the sampler's gauges: sustained per-node
			// saturation and idle-while-saturated imbalance, plus the
			// plan-vs-actual drift rule on completed runs.
			var nodeNames []string
			for _, n := range c.Cluster().Nodes() {
				nodeNames = append(nodeNames, n.Name())
			}
			opts.Thresholds = append(opts.Thresholds,
				monitor.UsageRules(nodeNames, 2*3600, monitor.SevWarning)...)
			opts.Drift = monitor.DriftRule{RelAbove: 0.25, MinSecs: 600, Severity: monitor.SevWarning}
		}
		// Process-control rules: the SPC observatory's run-rule verdicts
		// and changepoint detections surface through the standard alert
		// lifecycle alongside the threshold and staleness rules.
		opts.OutOfControl = monitor.OutOfControlRule{Enabled: true, Severity: monitor.SevWarning}
		opts.Changepoint = monitor.ChangepointRule{Enabled: true, Severity: monitor.SevWarning}
		mon = monitor.New(opts, tel.Registry())
		mon.Attach(c)

		// SPC observatory: every completed run streams through the online
		// control charts the moment its log is written, so the charts —
		// and the out_of_control/changepoint alerts they drive — track the
		// replay live. Drift and node-share series need the run ledger and
		// usage timeline and are closed out after the campaign drains.
		spcObs = spc.New()
		spcObs.OnEvent(func(e spc.Event) {
			if cp := e.Changepoint; cp != nil {
				mon.ObserveChangepoint(e.Kind, e.Subject, cp.Day, cp.DetectedDay, cp.Cause, cp.Before, cp.After)
			}
			mon.ObserveControl(e.Kind, e.Subject, e.Point.Day, e.SeriesOut, e.Point.Value, e.Point.Center, e.Point.Rules.Names())
		})
		spcObs.OnReplan(func(e spc.Event) {
			fmt.Printf("REPLAN trigger: drift/%s out of control on day %d (%+.0fs against plan)\n",
				e.Subject, e.Point.Day, e.Point.Value)
		})
		c.AddRunLogHook(func(r *logs.RunRecord) {
			if r.End <= 0 || r.Walltime <= 0 {
				return
			}
			deadline := 0.0
			if s := c.Spec(r.Forecast); s != nil && s.Deadline > 0 {
				deadline = float64(r.Day-c.StartDay())*factory.SecondsPerDay + s.Deadline
			}
			spcObs.ObserveRun(spc.RunObs{
				Forecast: r.Forecast, Day: r.Day, Node: r.Node,
				Walltime: r.Walltime, End: r.End, Deadline: deadline,
			})
		})
		ln, err := net.Listen("tcp", *monitorAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srv := monitor.NewServer(mon, tel.Registry())
		if harv != nil {
			srv.Attach("harvest", func() any { return harv.Status() })
		}
		if samp != nil {
			srv.Attach("utilization", func() any { return samp.Status() })
			// Forensics on demand: each request analyzes the trace so
			// far against the control room's plan, so the dashboard's
			// blame panel works during a replay (in-flight runs show
			// their lateness as of now) and stays current after the
			// campaign drains. Every input is a snapshot or a locked
			// accessor, so this is safe on the HTTP goroutine.
			srv.Attach("forensics", func() any {
				rep, err := forensics.Analyze(forensics.Input{
					Spans:    tel.Trace().Spans(),
					Plan:     mon.BlamePlan(c),
					Timeline: samp,
				})
				if err != nil {
					return map[string]string{"error": err.Error()}
				}
				return rep
			})
		}
		// The SPC endpoint serves the observatory's current snapshot: the
		// same report shape foreman -spc renders from the v5 tables, here
		// refreshed live as runs complete during the replay.
		srv.Attach("spc", func() any { return spcObs.Report() })
		// The engine panel reads the profiler's live snapshot on the same
		// refresh interval as every other panel.
		srv.Attach("engine", func() any { return kprof.Report() })
		if edge != nil {
			// The serving panel tracks the public edge live: hit rate,
			// shed fractions, and staleness percentiles as of the replay.
			srv.Attach("serving", func() any { return edge.Stats() })
		}
		if *pprofOn {
			srv.EnablePprof()
		}
		go func() {
			if err := http.Serve(ln, srv.Handler()); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
		servedAddr = ln.Addr()
		fmt.Printf("control room serving on http://%s\n", servedAddr)
	}

	c.Prepare()
	if *snapshotAt > 0 {
		c.Engine().RunUntil(*snapshotAt * 3600)
		snap := c.Snapshot()
		fmt.Printf("\n--- factory monitor at t=%.1fh ---\n", snap.Now/3600)
		for _, a := range snap.Active {
			fmt.Printf("  running: %-24s day %3d on %-8s %5.1f%% of simulation done\n",
				a.Forecast, a.Day, a.Node, 100*a.SimProgress)
		}
		for _, sc := range snap.Scheduled {
			fmt.Printf("  queued:  %-24s day %3d on %-8s launches at %.1fh\n",
				sc.Forecast, sc.Day, sc.Node, sc.Start/3600)
		}
		fmt.Println()
		fmt.Print(snap.Gantt(72))
		fmt.Println()
	}
	if *replayRate > 0 {
		// Paced replay: advance the virtual clock in one-wall-second
		// chunks so the dashboard shows the campaign unfolding. The lag
		// gauge compares where the clock should be against where it is —
		// a growing value means the engine can't keep the requested pace.
		eng := c.Engine()
		expected := eng.Now()
		for eng.Now() < c.Horizon() {
			expected = min(expected+*replayRate, c.Horizon())
			eng.RunUntil(min(eng.Now()+*replayRate, c.Horizon()))
			eng.ObserveReplayLag(expected)
			time.Sleep(time.Second)
		}
	}
	results := c.Finish()
	if harv != nil {
		// One closing pass picks up logs written after the last scheduled
		// harvest (drain-time completions).
		if _, err := harv.Pass(); err != nil {
			fmt.Fprintln(os.Stderr, "harvest:", err)
		}
	}
	if mon != nil {
		mon.Finalize(c.Engine().Now())
	}
	if samp != nil {
		samp.Finalize(c.Engine().Now())
	}
	if spcObs != nil {
		// Close out the charts: plan-vs-actual drift from the control
		// room's run ledger, per-node daily mean shares from the usage
		// timeline, then persist the snapshot into the v5 tables so the
		// end-of-campaign summary below is read back from the same rows
		// /api/spc and foreman -spc render.
		runs := mon.Status().Runs
		sort.Slice(runs, func(i, j int) bool { return runs[i].End < runs[j].End })
		for _, r := range runs {
			if r.End == 0 || r.LaunchETA == 0 {
				continue
			}
			spcObs.ObserveDrift(r.Forecast, r.Day, r.End, r.End-r.LaunchETA)
		}
		if samp != nil {
			for day := c.StartDay(); day < c.StartDay()+c.Days(); day++ {
				d0 := float64(day-c.StartDay()) * factory.SecondsPerDay
				d1 := d0 + factory.SecondsPerDay
				for _, n := range c.Cluster().Nodes() {
					spcObs.ObserveNodeShare(n.Name(), day, d1, samp.MeanShareOver(n.Name(), d0, d1))
				}
			}
		}
		spcObs.Finalize()
		if err := spc.LoadReport(statsDB, spcObs.Report()); err != nil {
			fmt.Fprintln(os.Stderr, "spc:", err)
		}
	}

	fmt.Printf("\n%s walltimes by day:\n", subject)
	daysOut, wt := factory.Walltimes(results, subject)
	if len(daysOut) == 0 {
		fmt.Fprintf(os.Stderr, "no finished runs for forecast %q\n", subject)
		os.Exit(1)
	}
	for i := range daysOut {
		fmt.Printf("  day %3d  %9.0f s\n", daysOut[i], wt[i])
	}

	records, err := logs.Crawl(c.FS(), "/runs")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	perForecast := map[string]int{}
	for _, r := range records {
		perForecast[r.Forecast]++
	}
	var names []string
	for n := range perForecast {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\nrun logs harvested: %d records\n", len(records))
	for _, n := range names {
		fmt.Printf("  %-24s %d runs\n", n, perForecast[n])
	}
	fmt.Println("\nnode utilization:")
	for _, n := range c.Cluster().Nodes() {
		fmt.Printf("  %-10s %5.1f%%\n", n.Name(), 100*n.Utilization())
	}

	if samp != nil {
		fmt.Println("\nutilization observatory:")
		fmt.Print(samp.Report(5))
		var rows []string
		for _, n := range c.Cluster().Nodes() {
			rows = append(rows, n.Name())
		}
		grid := usage.CondenseGrid(rows, samp.Samples(), 96)
		hm := plot.Heatmap{
			Title: "node utilization heatmap (full campaign)",
			Rows:  grid.Nodes,
			Start: grid.Start,
			Step:  grid.Step,
			Cells: grid.Utilization,
			Width: 96,
		}
		fmt.Println()
		fmt.Print(hm.Render())
		if t, err := usage.LoadSamples(statsDB, samp.Samples()); err != nil {
			fmt.Fprintln(os.Stderr, "usage:", err)
		} else {
			fmt.Printf("node_usage table: %d rows (schema v%d)\n", t.Len(), statsdb.SchemaVersion(statsDB))
		}
	}

	if harv != nil {
		st := harv.Status()
		fmt.Printf("\nharvest pipeline: %d passes, %d records ingested (%d updated), %d watermark hits, %d quarantined\n",
			st.Passes, st.Totals.Ingested, st.Totals.Updated, st.Totals.WatermarkHits, st.Totals.Quarantined)
		for _, q := range st.Quarantine {
			fmt.Printf("  quarantined: %s (%s)\n", q.Path, q.Error)
		}
	}

	if edge != nil {
		st := edge.Stats()
		fmt.Println("\npublic serving edge:")
		fmt.Print(serving.SummaryTable(st))
		fmt.Println()
		fmt.Print(serving.ProductTable(st, 10))
		// The demand feedback loop: the crowd the edge observed, ranked
		// against the specs' configured priorities — the next planning
		// cycle's priority boost for storm-hit forecasts.
		fmt.Println()
		fmt.Print(serving.DemandTable(servingBase, edge.ForecastDemand()))
		if err := serving.LoadReport(statsDB, st); err != nil {
			fmt.Fprintln(os.Stderr, "serving:", err)
		} else {
			fmt.Printf("serving_stats table: %d products (schema v%d)\n",
				len(st.Products), statsdb.SchemaVersion(statsDB))
		}
	}

	if *metricsOut != "" {
		if err := writeTo(*metricsOut, tel.Registry().WritePrometheus); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nmetrics written to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := writeTo(*traceOut, tel.Trace().WriteChromeTrace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace written to %s (%d spans; open in chrome://tracing)\n",
			*traceOut, tel.Trace().Len())
		// The trace doubles as the data source for the ForeMan Gantt view:
		// render the last day's run spans as executed.
		spans := tel.Trace().Spans()
		bars := plot.GanttFromSpans(spans, "run")
		if len(bars) > 0 {
			lastDay := 0.0
			for _, b := range bars {
				if b.Start > lastDay {
					lastDay = b.Start
				}
			}
			dayStart := float64(int(lastDay/86400)) * 86400
			var dayBars []plot.GanttBar
			for _, b := range bars {
				if b.Start >= dayStart {
					b.Start -= dayStart
					b.End -= dayStart
					dayBars = append(dayBars, b)
				}
			}
			g := plot.Gantt{Title: "last day as executed (from trace spans)", Bars: dayBars, Width: 72}
			fmt.Println()
			fmt.Print(g.Render())
		}
	}

	if kprof != nil {
		// Persist the campaign's kernel profile into the v6 tables and
		// re-read before rendering — the same rows foreman -engineprof
		// and /api/engine derive from.
		if err := engineprof.LoadReport(statsDB, kprof.Report()); err != nil {
			fmt.Fprintln(os.Stderr, "engineprof:", err)
		} else if rep, err := engineprof.ReadReport(statsDB); err == nil {
			fmt.Printf("\nengine observatory (schema v%d; live report at /api/engine):\n",
				statsdb.SchemaVersion(statsDB))
			fmt.Print(engineprof.SummaryTable(rep, 8))
		}
	}

	if mon != nil {
		fmt.Println("\nSLO report (deadline attainment):")
		fmt.Print(mon.Report())
		if spcObs != nil {
			if rep, err := spc.ReadReport(statsDB); err == nil && len(rep.Series) > 0 {
				fmt.Printf("\nprocess control (schema v%d; full report at /api/spc):\n",
					statsdb.SchemaVersion(statsDB))
				fmt.Print(spc.SummaryTable(rep))
				if cps := spc.ChangepointTable(rep); cps != "" {
					fmt.Println()
					fmt.Print(cps)
				}
			}
		}
		if alerts := mon.Alerts(); len(alerts) > 0 {
			firing := 0
			for _, a := range alerts {
				if a.Firing() {
					firing++
				}
			}
			fmt.Printf("\nalerts: %d total, %d still firing (full history at /api/alerts)\n",
				len(alerts), firing)
		}
		fmt.Printf("\ncontrol room still serving on http://%s — Ctrl-C to exit\n", servedAddr)
		select {}
	}
}

// writeTo writes one exporter's output to a file.
func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func nodesOf(cfg factory.Config) []factory.NodeSpec {
	if len(cfg.Nodes) > 0 {
		return cfg.Nodes
	}
	return factory.DefaultNodes()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

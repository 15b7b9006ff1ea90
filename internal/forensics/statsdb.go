package forensics

import (
	"fmt"
	"sort"

	"repro/internal/statsdb"
)

// Table names added by the schema v4 migration. Both join with the runs,
// spans, and node_usage tables on (forecast, day) and node. The
// lateness_blame columns are RunBlame's `db` tags; critical_paths adds
// the run key and the duration to Segment's.
const (
	BlameTableName = "lateness_blame"
	PathsTableName = "critical_paths"
)

// pathRow is one critical_paths row: a segment keyed by its run.
type pathRow struct {
	Forecast string `db:"forecast"`
	Day      int    `db:"day"`
	Segment
	Duration float64 `db:"duration"`
}

// Migrations returns the forensics layer's schema migrations: v4 creates
// the lateness_blame and critical_paths tables with their lookup indexes.
func Migrations() []statsdb.Migration {
	return []statsdb.Migration{
		{
			Version: 4,
			Name:    "forensics-tables",
			Apply: func(db *statsdb.DB) error {
				if err := statsdb.EnsureTable(db, BlameTableName, statsdb.SchemaOf[RunBlame](), "forecast", "day"); err != nil {
					return err
				}
				return statsdb.EnsureTable(db, PathsTableName, statsdb.SchemaOf[pathRow](), "forecast")
			},
		},
	}
}

// LoadReport persists one pass's results into the lateness_blame and
// critical_paths tables (created via the v4 migration when missing).
// One pass analyzes a whole campaign, so load each report once; the CLI
// report and /api/forensics both read these rows back via ReadReport.
func LoadReport(db *statsdb.DB, rep *Report) error {
	if _, err := statsdb.Migrate(db, Migrations()); err != nil {
		return err
	}
	bt := db.Table(BlameTableName)
	pt := db.Table(PathsTableName)
	for i := range rep.Runs {
		r := &rep.Runs[i]
		if r.Forecast == "" {
			return fmt.Errorf("forensics: blame row with empty forecast")
		}
		if err := statsdb.InsertRow(bt, r); err != nil {
			return err
		}
		for _, s := range r.Path {
			row := pathRow{Forecast: r.Forecast, Day: r.Day, Segment: s, Duration: s.Duration()}
			if err := statsdb.InsertRow(pt, &row); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadReport reconstructs a Report from the persisted tables — the
// replayable half of the pipeline: the CLI report, the JSON endpoint, and
// any later analysis all derive from the same statsdb rows. Day
// aggregates are recomputed from the run rows. Returns an empty report
// when the tables are absent.
func ReadReport(db *statsdb.DB) (*Report, error) {
	bt := db.Table(BlameTableName)
	if bt == nil {
		return &Report{}, nil
	}
	runs, err := statsdb.ReadRows[RunBlame](bt)
	if err != nil {
		return nil, err
	}
	rows, err := statsdb.ReadRows[pathRow](db.Table(PathsTableName))
	if err != nil {
		return nil, err
	}
	paths := make(map[string][]Segment)
	for _, row := range rows {
		key := runKey(row.Forecast, row.Day)
		paths[key] = append(paths[key], row.Segment)
	}
	for i := range runs {
		r := &runs[i]
		p := paths[runKey(r.Forecast, r.Day)]
		sort.Slice(p, func(a, b int) bool { return p[a].Seq < p[b].Seq })
		r.Path = p
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].Day != runs[j].Day {
			return runs[i].Day < runs[j].Day
		}
		return runs[i].Forecast < runs[j].Forecast
	})
	return &Report{Runs: runs, Days: aggregateDays(runs)}, nil
}

// Schema v5: the SPC observatory's persisted state. control_points
// holds every charted observation with its verdict; changepoints holds
// the detected (and history-supplied) level shifts. `foreman -spc`,
// /api/spc, and the dashboard all render a Report read back from these
// rows, so the three surfaces cannot disagree.

package spc

import (
	"fmt"
	"sort"

	"repro/internal/statsdb"
)

// Table names added by the schema v5 migration.
const (
	PointsTableName       = "control_points"
	ChangepointsTableName = "changepoints"
)

// pointRow is one control_points row: a point keyed by its series.
type pointRow struct {
	Kind    string `db:"kind"`
	Subject string `db:"subject"`
	Point
}

// changepointRow is one changepoints row: a level shift keyed by its
// series.
type changepointRow struct {
	Kind    string `db:"kind"`
	Subject string `db:"subject"`
	Changepoint
}

// Migrations returns the SPC layer's schema migrations: v5 creates the
// control_points and changepoints tables with their lookup indexes.
func Migrations() []statsdb.Migration {
	return []statsdb.Migration{
		{
			Version: 5,
			Name:    "spc-tables",
			Apply: func(db *statsdb.DB) error {
				if err := statsdb.EnsureTable(db, PointsTableName, statsdb.SchemaOf[pointRow](), "kind", "subject"); err != nil {
					return err
				}
				return statsdb.EnsureTable(db, ChangepointsTableName, statsdb.SchemaOf[changepointRow](), "subject")
			},
		},
	}
}

// LoadReport persists one observatory snapshot into the control_points
// and changepoints tables (created via the v5 migration when missing).
// One snapshot covers a whole campaign, so load each report once.
func LoadReport(db *statsdb.DB, rep *Report) error {
	if _, err := statsdb.Migrate(db, Migrations()); err != nil {
		return err
	}
	pt := db.Table(PointsTableName)
	ct := db.Table(ChangepointsTableName)
	for i := range rep.Series {
		sr := &rep.Series[i]
		if sr.Kind == "" || sr.Subject == "" {
			return fmt.Errorf("spc: series with empty kind or subject")
		}
		for _, p := range sr.Points {
			if err := statsdb.InsertRow(pt, &pointRow{sr.Kind, sr.Subject, p}); err != nil {
				return err
			}
		}
		for _, cp := range sr.Changepoints {
			if err := statsdb.InsertRow(ct, &changepointRow{sr.Kind, sr.Subject, cp}); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadReport reconstructs a Report from the persisted tables — the
// replayable half of the pipeline: the CLI charts, the JSON endpoint,
// and the dashboard panel all derive from the same statsdb rows.
// Baselines, limits, and violation counts are recomputed from the
// latest judged point per series. Returns an empty report when the
// tables are absent.
func ReadReport(db *statsdb.DB) (*Report, error) {
	points, err := statsdb.ReadRows[pointRow](db.Table(PointsTableName))
	if err != nil {
		return nil, err
	}
	cps, err := statsdb.ReadRows[changepointRow](db.Table(ChangepointsTableName))
	if err != nil {
		return nil, err
	}
	bySeries := make(map[seriesKey]*SeriesReport)
	var order []seriesKey
	seriesOf := func(kind, subject string) *SeriesReport {
		key := seriesKey{kind, subject}
		sr, ok := bySeries[key]
		if !ok {
			sr = &SeriesReport{Kind: kind, Subject: subject}
			bySeries[key] = sr
			order = append(order, key)
		}
		return sr
	}
	for _, row := range points {
		sr := seriesOf(row.Kind, row.Subject)
		sr.Points = append(sr.Points, row.Point)
	}
	for _, row := range cps {
		sr := seriesOf(row.Kind, row.Subject)
		sr.Changepoints = append(sr.Changepoints, row.Changepoint)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].kind != order[j].kind {
			return kindRank(order[i].kind) < kindRank(order[j].kind)
		}
		return order[i].subject < order[j].subject
	})
	rep := &Report{}
	for _, key := range order {
		sr := bySeries[key]
		sort.Slice(sr.Points, func(a, b int) bool { return sr.Points[a].Seq < sr.Points[b].Seq })
		sort.Slice(sr.Changepoints, func(a, b int) bool { return sr.Changepoints[a].Seq < sr.Changepoints[b].Seq })
		// Re-aggregate standing from the stored verdicts: the latest
		// judged point carries the live baseline and the sticky state.
		for i := range sr.Points {
			p := &sr.Points[i]
			if p.Out {
				sr.Violations++
			}
			if !p.Learning {
				sr.Center, sr.Sigma = p.Center, p.Sigma
				sr.UCL, sr.LCL = p.UCL, p.LCL
				sr.Out = p.Out
			}
		}
		rep.Series = append(rep.Series, *sr)
	}
	return rep, nil
}

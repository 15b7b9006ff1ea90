// Schema v6: the engine observatory's persisted state. engine_profile
// holds one row per scheduling label with its counters, wall-clock
// accumulators and cost histogram; engine_queue_depth holds the
// pending-queue-depth timeline. `foreman -engineprof`, /api/engine and
// the factory's campaign-end summary all render a Report read back from
// these rows, so the surfaces cannot disagree.

package engineprof

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/statsdb"
)

// Table names added by the schema v6 migration.
const (
	ProfileTableName = "engine_profile"
	DepthTableName   = "engine_queue_depth"
)

// profileRow is one engine_profile row: a LabelReport with its decade
// histogram flattened to comma-joined counts.
type profileRow struct {
	Label       string  `db:"label"`
	Scheduled   int64   `db:"scheduled"`
	Fired       int64   `db:"fired"`
	Cancelled   int64   `db:"cancelled"`
	WallSampled int64   `db:"wall_sampled"`
	WallNS      int64   `db:"wall_ns"`
	WallMaxNS   int64   `db:"wall_max_ns"`
	WallHist    string  `db:"wall_hist"`
	DwellSum    float64 `db:"dwell_sum"`
	DwellMax    float64 `db:"dwell_max"`
}

// depthRow is one engine_queue_depth row: a depth point and its place
// in the timeline.
type depthRow struct {
	Seq int64 `db:"seq"`
	DepthPoint
}

// Migrations returns the engine observatory's schema migrations: v6
// creates the engine_profile and engine_queue_depth tables.
func Migrations() []statsdb.Migration {
	return []statsdb.Migration{
		{
			Version: 6,
			Name:    "engine-observatory-tables",
			Apply: func(db *statsdb.DB) error {
				if err := statsdb.EnsureTable(db, ProfileTableName, statsdb.SchemaOf[profileRow](), "label"); err != nil {
					return err
				}
				return statsdb.EnsureTable(db, DepthTableName, statsdb.SchemaOf[depthRow]())
			},
		},
	}
}

// histString flattens the decade histogram for the wall_hist column.
func histString(h [HistBuckets]int64) string {
	parts := make([]string, HistBuckets)
	for i, n := range h {
		parts[i] = strconv.FormatInt(n, 10)
	}
	return strings.Join(parts, ",")
}

// parseHist reads a wall_hist column value back; malformed or short
// strings yield zeros for the missing buckets.
func parseHist(s string) (h [HistBuckets]int64) {
	for i, part := range strings.Split(s, ",") {
		if i >= HistBuckets {
			break
		}
		n, err := strconv.ParseInt(part, 10, 64)
		if err == nil {
			h[i] = n
		}
	}
	return h
}

// LoadReport persists one observatory snapshot into the engine_profile
// and engine_queue_depth tables (created via the v6 migration when
// missing). One snapshot covers a whole campaign, so load each report
// once.
func LoadReport(db *statsdb.DB, rep *Report) error {
	if _, err := statsdb.Migrate(db, Migrations()); err != nil {
		return err
	}
	pt := db.Table(ProfileTableName)
	dt := db.Table(DepthTableName)
	for _, l := range rep.Labels {
		if l.Label == "" {
			return fmt.Errorf("engineprof: label report with empty label")
		}
		row := profileRow{
			Label:       l.Label,
			Scheduled:   l.Scheduled,
			Fired:       l.Fired,
			Cancelled:   l.Cancelled,
			WallSampled: l.WallSampled,
			WallNS:      l.WallNS,
			WallMaxNS:   l.WallMaxNS,
			WallHist:    histString(l.WallHist),
			DwellSum:    l.DwellSum,
			DwellMax:    l.DwellMax,
		}
		if err := statsdb.InsertRow(pt, &row); err != nil {
			return err
		}
	}
	for i, p := range rep.Depth {
		if err := statsdb.InsertRow(dt, &depthRow{int64(i), p}); err != nil {
			return err
		}
	}
	return nil
}

// ReadReport reconstructs a Report from the persisted tables — the
// replayable half of the pipeline: the CLI tables, the JSON endpoint
// and the dashboard panel all derive from the same statsdb rows.
// Returns an empty report when the tables are absent.
func ReadReport(db *statsdb.DB) (*Report, error) {
	rows, err := statsdb.ReadRows[profileRow](db.Table(ProfileTableName))
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	for _, r := range rows {
		rep.Labels = append(rep.Labels, LabelReport{
			Label:       r.Label,
			Scheduled:   r.Scheduled,
			Fired:       r.Fired,
			Cancelled:   r.Cancelled,
			WallSampled: r.WallSampled,
			WallNS:      r.WallNS,
			WallMaxNS:   r.WallMaxNS,
			WallHist:    parseHist(r.WallHist),
			DwellSum:    r.DwellSum,
			DwellMax:    r.DwellMax,
		})
	}
	sortLabels(rep.Labels)
	depth, err := statsdb.ReadRows[depthRow](db.Table(DepthTableName))
	if err != nil {
		return nil, err
	}
	// Rows normally come back in insertion order, but the timeline's
	// meaning depends on order, so honor the explicit seq column.
	sort.SliceStable(depth, func(i, j int) bool { return depth[i].Seq < depth[j].Seq })
	for _, d := range depth {
		rep.Depth = append(rep.Depth, d.DepthPoint)
	}
	return rep, nil
}

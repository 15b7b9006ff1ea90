package usage

import (
	"fmt"

	"repro/internal/statsdb"
)

// Table names added by the schema v3 migration. Both tables join with
// runs: node_usage on node (and time overlap), drift on (forecast, day).
// Their columns are the `db` tags of Sample and Drift.
const (
	NodeUsageTableName = "node_usage"
	DriftTableName     = "drift"
)

// Migrations returns the usage layer's schema migrations: v3 creates the
// node_usage and drift tables with their lookup indexes. Migrate tracks
// each version independently, so applying v3 to a database that already
// carries harvest's v1+v2 only adds the new tables.
func Migrations() []statsdb.Migration {
	return []statsdb.Migration{
		{
			Version: 3,
			Name:    "usage-tables",
			Apply: func(db *statsdb.DB) error {
				if err := statsdb.EnsureTable(db, NodeUsageTableName, statsdb.SchemaOf[Sample](), "node"); err != nil {
					return err
				}
				return statsdb.EnsureTable(db, DriftTableName, statsdb.SchemaOf[Drift](), "forecast")
			},
		},
	}
}

// LoadSamples appends timeline samples into the node_usage table,
// creating it (via the v3 migration) if missing.
func LoadSamples(db *statsdb.DB, samples []Sample) (*statsdb.Table, error) {
	if _, err := statsdb.Migrate(db, Migrations()); err != nil {
		return nil, err
	}
	t := db.Table(NodeUsageTableName)
	for i := range samples {
		if samples[i].Node == "" {
			return nil, fmt.Errorf("usage: sample with empty node")
		}
		if err := statsdb.InsertRow(t, &samples[i]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// LoadDrift appends drift records into the drift table, creating it (via
// the v3 migration) if missing.
func LoadDrift(db *statsdb.DB, ds []Drift) (*statsdb.Table, error) {
	if _, err := statsdb.Migrate(db, Migrations()); err != nil {
		return nil, err
	}
	t := db.Table(DriftTableName)
	for i := range ds {
		if ds[i].Run == "" {
			return nil, fmt.Errorf("usage: drift record with empty run")
		}
		if err := statsdb.InsertRow(t, &ds[i]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

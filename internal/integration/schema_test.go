package integration

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engineprof"
	"repro/internal/forensics"
	"repro/internal/harvest"
	"repro/internal/serving"
	"repro/internal/spc"
	"repro/internal/statsdb"
	"repro/internal/usage"
)

// TestSchemaPin pins the full statistics-database layout that the
// harvest (v1, v2), usage (v3), forensics (v4), spc (v5), engineprof
// (v6) and serving (v7) migrations build: every table's columns by name,
// type and order, its indexes, and the recorded migrations. Round-trip
// tests cannot catch a column renamed on both the write and the read
// side; this literal can.
func TestSchemaPin(t *testing.T) {
	want := map[string]struct{ cols, indexes string }{
		"changepoints": {
			"kind:STRING subject:STRING seq:INT day:INT t:FLOAT cause:STRING before:FLOAT after:FLOAT detected_seq:INT detected_day:INT",
			"subject",
		},
		"control_points": {
			"kind:STRING subject:STRING seq:INT day:INT t:FLOAT value:FLOAT center:FLOAT sigma:FLOAT ucl:FLOAT lcl:FLOAT z:FLOAT ewma:FLOAT ewma_upper:FLOAT ewma_lower:FLOAT cusum_pos:FLOAT cusum_neg:FLOAT rules:STRING out:BOOL learning:BOOL",
			"kind subject",
		},
		"critical_paths": {
			"forecast:STRING day:INT seq:INT kind:STRING name:STRING node:STRING start:FLOAT end:FLOAT duration:FLOAT",
			"forecast",
		},
		"drift": {
			"forecast:STRING day:INT planned_node:STRING actual_node:STRING moved:BOOL predicted_start:FLOAT predicted_end:FLOAT actual_start:FLOAT actual_end:FLOAT end_delta:FLOAT rel_error:FLOAT mean_share:FLOAT",
			"forecast",
		},
		"engine_profile": {
			"label:STRING scheduled:INT fired:INT cancelled:INT wall_sampled:INT wall_ns:INT wall_max_ns:INT wall_hist:STRING dwell_sum:FLOAT dwell_max:FLOAT",
			"label",
		},
		"engine_queue_depth": {
			"seq:INT t:FLOAT depth:INT",
			"",
		},
		"lateness_blame": {
			"forecast:STRING day:INT node:STRING start:FLOAT end:FLOAT planned:BOOL planned_start:FLOAT planned_end:FLOAT deadline:FLOAT lateness:FLOAT deadline_miss:FLOAT queue_wait:FLOAT contention:FLOAT failure:FLOAT upstream_wait:FLOAT estimate_error:FLOAT mean_share:FLOAT dominant:STRING interrupted:BOOL",
			"day forecast",
		},
		"node_usage": {
			"node:STRING start:FLOAT end:FLOAT utilization:FLOAT mean_share:FLOAT mean_active:FLOAT peak_active:INT contention_secs:FLOAT idle_secs:FLOAT down_secs:FLOAT",
			"node",
		},
		"runs": {
			"forecast:STRING region:STRING year:INT day:INT node:STRING code_version:STRING code_factor:FLOAT mesh:STRING mesh_sides:INT timesteps:INT start:FLOAT end:FLOAT walltime:FLOAT status:STRING products:INT harvested_at:FLOAT source_path:STRING",
			"code_version forecast node",
		},
		"schema_migrations": {
			"version:INT name:STRING",
			"",
		},
		"serving_stats": {
			"product:STRING forecast:STRING requests:INT hits:INT misses:INT coalesced:INT renders:INT shed:INT served_stale:INT demand_rate:FLOAT cycle:INT hot:BOOL staleness_p50:FLOAT staleness_p99:FLOAT staleness_max:FLOAT staleness_mean:FLOAT mean_wait:FLOAT",
			"product",
		},
	}
	wantMigrations := []string{
		"1 create-runs",
		"2 runs-provenance",
		"3 usage-tables",
		"4 forensics-tables",
		"5 spc-tables",
		"6 engine-observatory-tables",
		"7 serving-tables",
	}

	db := statsdb.NewDB()
	var ms []statsdb.Migration
	for _, layer := range [][]statsdb.Migration{
		harvest.Migrations(), usage.Migrations(), forensics.Migrations(),
		spc.Migrations(), engineprof.Migrations(), serving.Migrations(),
	} {
		ms = append(ms, layer...)
	}
	if _, err := statsdb.Migrate(db, ms); err != nil {
		t.Fatal(err)
	}

	if v := statsdb.SchemaVersion(db); v != 7 {
		t.Errorf("SchemaVersion = %d, want 7", v)
	}
	names := db.TableNames()
	if len(names) != len(want) {
		t.Errorf("tables = %v, want %d tables", names, len(want))
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("unexpected table %q", name)
			continue
		}
		tb := db.Table(name)
		var cols []string
		for _, c := range tb.Schema() {
			cols = append(cols, c.Name+":"+c.Type.String())
		}
		if got := strings.Join(cols, " "); got != w.cols {
			t.Errorf("table %s columns:\n got %s\nwant %s", name, got, w.cols)
		}
		if got := strings.Join(tb.IndexedColumns(), " "); got != w.indexes {
			t.Errorf("table %s indexes = %q, want %q", name, got, w.indexes)
		}
	}
	mt := db.Table(statsdb.MigrationsTableName)
	var got []string
	for i := 0; i < mt.Len(); i++ {
		row := mt.Row(i)
		got = append(got, fmt.Sprintf("%d %s", row[0].Int(), row[1].Str()))
	}
	if !reflect.DeepEqual(got, wantMigrations) {
		t.Errorf("migrations = %q, want %q", got, wantMigrations)
	}
}

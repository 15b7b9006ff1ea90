package statsdb_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/spc"
	"repro/internal/statsdb"
)

type codecInner struct {
	Seq   int     `db:"seq"`
	Value float64 `db:"value"`
}

type codecRow struct {
	Name string `db:"name"`
	codecInner
	Rules spc.RuleSet `db:"rules"`
	Hot   bool        `db:"hot"`
	Count int32       `db:"count"`
	Note  string      // untagged: not a column
}

func TestSchemaOfFlattensEmbeddedInOrder(t *testing.T) {
	got := statsdb.SchemaOf[codecRow]()
	want := statsdb.Schema{
		{Name: "name", Type: statsdb.String},
		{Name: "seq", Type: statsdb.Int},
		{Name: "value", Type: statsdb.Float},
		{Name: "rules", Type: statsdb.String},
		{Name: "hot", Type: statsdb.Bool},
		{Name: "count", Type: statsdb.Int},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SchemaOf = %v, want %v", got, want)
	}
}

func TestInsertRowStoresNonFiniteFloatsAsZero(t *testing.T) {
	tbl, err := statsdb.NewTable("t", statsdb.SchemaOf[codecRow]())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := statsdb.InsertRow(tbl, codecRow{Name: "x", codecInner: codecInner{Value: v}}); err != nil {
			t.Fatalf("insert %v: %v", v, err)
		}
	}
	rows, err := statsdb.ReadRows[codecRow](tbl)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Value != 0 {
			t.Errorf("row %d value = %v, want 0", i, r.Value)
		}
	}
}

func TestRowCodecRoundTripsTextMarshaler(t *testing.T) {
	tbl, err := statsdb.NewTable("t", statsdb.SchemaOf[codecRow]())
	if err != nil {
		t.Fatal(err)
	}
	want := []codecRow{
		{Name: "a", codecInner: codecInner{Seq: 1, Value: 2.5}, Rules: spc.ParseRuleSet(spc.RuleWE1, spc.RuleCUSUM), Hot: true, Count: 7},
		{Name: "b", codecInner: codecInner{Seq: 2, Value: -1}},
	}
	for i := range want {
		if err := statsdb.InsertRow(tbl, &want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if s := tbl.Row(0)[3].Str(); s != "we1,cusum" {
		t.Errorf("rules column = %q, want the comma-joined names", s)
	}
	got, err := statsdb.ReadRows[codecRow](tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

func TestRowCodecMatchesColumnsByName(t *testing.T) {
	// The same columns in a different order than codecRow declares.
	tbl, err := statsdb.NewTable("t", statsdb.Schema{
		{Name: "count", Type: statsdb.Int},
		{Name: "hot", Type: statsdb.Bool},
		{Name: "value", Type: statsdb.Float},
		{Name: "rules", Type: statsdb.String},
		{Name: "seq", Type: statsdb.Int},
		{Name: "name", Type: statsdb.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tbl.Insert([]statsdb.Value{
		statsdb.IntVal(3), statsdb.BoolVal(true), statsdb.FloatVal(1.5),
		statsdb.StringVal("we2"), statsdb.IntVal(9), statsdb.StringVal("raw"),
	})
	if err != nil {
		t.Fatal(err)
	}
	via := codecRow{Name: "codec", codecInner: codecInner{Seq: 4, Value: 0.25}, Count: 1}
	if err := statsdb.InsertRow(tbl, via); err != nil {
		t.Fatal(err)
	}
	got, err := statsdb.ReadRows[codecRow](tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := []codecRow{
		{Name: "raw", codecInner: codecInner{Seq: 9, Value: 1.5}, Rules: spc.ParseRuleSet(spc.RuleWE2), Hot: true, Count: 3},
		via,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read = %+v, want %+v", got, want)
	}
}

func TestRowCodecMissingColumnIsNamed(t *testing.T) {
	tbl, err := statsdb.NewTable("narrow", statsdb.Schema{
		{Name: "name", Type: statsdb.String},
		{Name: "seq", Type: statsdb.Int},
		{Name: "value", Type: statsdb.Float},
		{Name: "hot", Type: statsdb.Bool},
		{Name: "count", Type: statsdb.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := statsdb.ReadRows[codecRow](tbl); err == nil || !strings.Contains(err.Error(), `"rules"`) {
		t.Errorf("ReadRows on a table without rules: err = %v, want one naming the column", err)
	}
	if err := statsdb.InsertRow(tbl, codecRow{Name: "x"}); err == nil {
		t.Error("InsertRow into a table without rules did not error")
	}
	if rows, err := statsdb.ReadRows[codecRow](nil); rows != nil || err != nil {
		t.Errorf("ReadRows(nil) = %v, %v; want no rows", rows, err)
	}
}

func TestEnsureTableIsIdempotent(t *testing.T) {
	db := statsdb.NewDB()
	for i := 0; i < 2; i++ {
		if err := statsdb.EnsureTable(db, "t", statsdb.SchemaOf[codecRow](), "name", "seq"); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := db.Table("t").IndexedColumns(); !reflect.DeepEqual(got, []string{"name", "seq"}) {
		t.Errorf("indexes = %v", got)
	}
}

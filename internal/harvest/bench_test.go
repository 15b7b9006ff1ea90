package harvest

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/logs"
	"repro/internal/statsdb"
	"repro/internal/vfs"
)

// benchTree builds a run tree with forecasts×days logs.
func benchTree(tb testing.TB, forecasts, days int) *vfs.FS {
	tb.Helper()
	fs := vfs.New(nil)
	for i := 0; i < forecasts; i++ {
		name := fmt.Sprintf("forecast-%03d", i)
		for d := 1; d <= days; d++ {
			if err := logs.Write(fs, record(name, d, "elcirc-5.01")); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return fs
}

// BenchmarkHarvestColdPass measures a first pass over a 200-log tree:
// every body read, parsed, and upserted.
func BenchmarkHarvestColdPass(b *testing.B) {
	fs := benchTree(b, 50, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := New(fs, statsdb.NewDB(), NewVFSJournal(vfs.New(nil), "/j"), Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Pass(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarvestWarmPass measures the watermark fast path: the same
// tree, nothing changed, no body reads.
func BenchmarkHarvestWarmPass(b *testing.B) {
	fs := benchTree(b, 50, 4)
	h, err := New(fs, statsdb.NewDB(), NewVFSJournal(vfs.New(nil), "/j"), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.Pass(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Pass(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEmitBenchReport writes a machine-readable harvest benchmark to the
// file named by BENCH_OUT; `make bench` sets it and CI uploads the result
// as an artifact. Without BENCH_OUT the test is skipped.
func TestEmitBenchReport(t *testing.T) {
	out := benchkit.OutPath(t)
	const forecasts, days = 100, 4
	fs := benchTree(t, forecasts, days)
	h, err := New(fs, statsdb.NewDB(), NewVFSJournal(vfs.New(nil), "/j"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st, err := h.Pass()
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start).Seconds()
	if st.Ingested != forecasts*days {
		t.Fatalf("cold pass ingested %d, want %d", st.Ingested, forecasts*days)
	}
	const warmIters = 20
	start = time.Now()
	for i := 0; i < warmIters; i++ {
		if _, err := h.Pass(); err != nil {
			t.Fatal(err)
		}
	}
	warm := time.Since(start).Seconds() / warmIters
	report := map[string]any{
		"logs":               forecasts * days,
		"cold_pass_seconds":  cold,
		"warm_pass_seconds":  warm,
		"warm_speedup":       cold / warm,
		"records_per_second": float64(st.Ingested) / cold,
	}
	benchkit.WriteReport(t, out, report)
}

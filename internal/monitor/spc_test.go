package monitor

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/spc"
	"repro/internal/statsdb"
)

func TestOutOfControlRuleLifecycle(t *testing.T) {
	m := testMonitor(Options{
		OutOfControl: OutOfControlRule{Enabled: true, Severity: SevWarning},
		Changepoint:  ChangepointRule{Enabled: true, Severity: SevWarning},
	})

	m.ObserveControl("run_time", "fc", 3, false, 100, 100, nil)
	if len(m.FiringAlerts()) != 0 {
		t.Fatal("clean point fired an alert")
	}
	m.ObserveControl("run_time", "fc", 4, true, 160, 100, []string{"we1"})
	firing := m.FiringAlerts()
	if len(firing) != 1 {
		t.Fatalf("out-of-control point fired %d alerts, want 1", len(firing))
	}
	a := firing[0]
	if a.Rule != "out_of_control" || a.Severity != SevWarning || a.Forecast != "fc" || a.Day != 4 {
		t.Errorf("alert = %+v", a)
	}
	if !strings.Contains(a.Message, "we1") {
		t.Errorf("message missing rule names: %s", a.Message)
	}
	// Still out: refreshed in place, not duplicated.
	m.ObserveControl("run_time", "fc", 5, true, 150, 100, []string{"we1"})
	if len(m.FiringAlerts()) != 1 {
		t.Fatal("sustained violation duplicated the alert")
	}
	// Clean point: resolves through the standard lifecycle.
	m.ObserveControl("run_time", "fc", 6, false, 101, 100, nil)
	if len(m.FiringAlerts()) != 0 {
		t.Fatal("alert did not resolve on a clean point")
	}
	all := m.Alerts()
	if len(all) != 1 || all[0].State != StateResolved {
		t.Fatalf("history = %+v", all)
	}
}

func TestChangepointAlertResolvesWhenBackInControl(t *testing.T) {
	m := testMonitor(Options{
		OutOfControl: OutOfControlRule{Enabled: true, Severity: SevWarning},
		Changepoint:  ChangepointRule{Enabled: true, Severity: SevCritical},
	})
	m.ObserveChangepoint("run_time", "fc", 20, 23, "detected", 100, 140)
	firing := m.FiringAlerts()
	if len(firing) != 1 {
		t.Fatalf("changepoint fired %d alerts, want 1", len(firing))
	}
	a := firing[0]
	if a.Rule != "changepoint" || a.Severity != SevCritical || a.Day != 20 {
		t.Errorf("alert = %+v", a)
	}
	// A clean point under the re-fit baseline resolves the changepoint.
	m.ObserveControl("run_time", "fc", 24, false, 141, 140, nil)
	if len(m.FiringAlerts()) != 0 {
		t.Fatal("changepoint alert did not resolve once back in control")
	}
}

func TestSPCNodeShareAttribution(t *testing.T) {
	m := testMonitor(Options{OutOfControl: OutOfControlRule{Enabled: true, Severity: SevWarning}})
	m.ObserveControl("node_share", "node-3", 7, true, 0.2, 0.8, []string{"we1"})
	firing := m.FiringAlerts()
	if len(firing) != 1 || firing[0].Node != "node-3" || firing[0].Forecast != "" {
		t.Fatalf("node series attribution wrong: %+v", firing)
	}
}

func TestSPCRulesDisabledByDefault(t *testing.T) {
	m := testMonitor(Options{})
	m.ObserveControl("run_time", "fc", 1, true, 160, 100, []string{"we1"})
	m.ObserveChangepoint("run_time", "fc", 1, 2, "detected", 100, 140)
	if len(m.FiringAlerts()) != 0 {
		t.Error("zero-value SPC rules must be disabled")
	}
}

// TestSPCEndpointServesPersistedReport is the issue's agreement check:
// /api/spc serves exactly what spc.ReadReport returns from the stats
// database — the same report foreman -spc renders.
func TestSPCEndpointServesPersistedReport(t *testing.T) {
	o := spc.New()
	for i, v := range []float64{100, 102, 98, 101, 99, 100, 102, 98, 140, 141, 139, 140, 142} {
		o.Observe(spc.KindRunTime, "f1", i, float64(i)*86400, v)
	}
	db := statsdb.NewDB()
	if err := spc.LoadReport(db, o.Report()); err != nil {
		t.Fatal(err)
	}

	m := testMonitor(Options{})
	s := NewServer(m, nil)
	s.Attach("spc", func() any {
		r, err := spc.ReadReport(db)
		if err != nil {
			return map[string]string{"error": err.Error()}
		}
		return r
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, body, ctype := get(t, srv, "/api/spc")
	if code != 200 || ctype != "application/json" {
		t.Fatalf("spc endpoint = %d %s", code, ctype)
	}
	var got spc.Report
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("spc response is not a Report: %v\n%s", err, body)
	}
	want, err := spc.ReadReport(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("served %d series, statsdb has %d", len(got.Series), len(want.Series))
	}
	for i := range want.Series {
		a, b := got.Series[i], want.Series[i]
		if a.Kind != b.Kind || a.Subject != b.Subject || a.Out != b.Out ||
			a.Violations != b.Violations || len(a.Points) != len(b.Points) ||
			len(a.Changepoints) != len(b.Changepoints) {
			t.Errorf("series %d: served %s/%s (%d pts), statsdb %s/%s (%d pts)",
				i, a.Kind, a.Subject, len(a.Points), b.Kind, b.Subject, len(b.Points))
		}
		if math.Abs(a.Center-b.Center) > 1e-9 || math.Abs(a.UCL-b.UCL) > 1e-9 {
			t.Errorf("series %d limits diverge between endpoint and statsdb", i)
		}
	}
}

func TestSPCEndpointWithoutAttachment(t *testing.T) {
	m := testMonitor(Options{})
	srv := httptest.NewServer(NewServer(m, nil).Handler())
	defer srv.Close()
	code, _, _ := get(t, srv, "/api/spc")
	if code != 404 {
		t.Errorf("unattached spc endpoint = %d, want 404", code)
	}
}

func TestDashboardHasSPCPanelAndSharedRefresh(t *testing.T) {
	m := testMonitor(Options{})
	srv := httptest.NewServer(NewServer(m, nil).Handler())
	defer srv.Close()
	code, body, _ := get(t, srv, "/")
	if code != 200 {
		t.Fatalf("dashboard = %d", code)
	}
	for _, want := range []string{"spc-panel", "api/spc", "changepoint"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	// Satellite: one shared refresh interval and per-panel sim-time
	// stamps, so panels cannot silently show mixed-age data.
	if !strings.Contains(body, "REFRESH_MS") || strings.Contains(body, "setInterval(refresh, 2000)") {
		t.Error("dashboard panels do not share one refresh interval")
	}
	for _, want := range []string{"spc-asof", "blame-asof", "util-asof", "last updated", "STALE"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing freshness stamp %q", want)
		}
	}
}

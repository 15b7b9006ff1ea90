package monitor

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// testServer builds a monitor with one predicted-then-actual deadline
// miss and returns its HTTP handler.
func testServer(t *testing.T) (*Monitor, *telemetry.Registry, *httptest.Server) {
	t.Helper()
	reg := telemetry.NewRegistry()
	m := New(Options{
		History:   seedHistory("f", 10000, 10000, 10000),
		Deadlines: map[string]float64{"f": 7200},
		Nodes:     []core.NodeInfo{{Name: "fnode01", CPUs: 2, Speed: 1}},
	}, reg)
	m.ObserveRecord(runningRec("f", 4, day4+3600))
	m.ObserveRecord(completedRec("f", 4, day4+3600, 10000))
	srv := httptest.NewServer(NewServer(m, reg).Handler())
	t.Cleanup(srv.Close)
	return m, reg, srv
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestHealthzEndpoint(t *testing.T) {
	_, _, srv := testServer(t)
	code, body, _ := get(t, srv, "/healthz")
	if code != 200 {
		t.Fatalf("healthz status = %d", code)
	}
	var h map[string]any
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz is not JSON: %v\n%s", err, body)
	}
	if h["status"] != "ok" || h["alerts_firing"] != float64(1) {
		t.Errorf("healthz = %v, want status ok with 1 firing alert", h)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, _, srv := testServer(t)
	code, body, ctype := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("metrics status = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("metrics content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE monitor_alerts_firing gauge",
		"monitor_alerts_firing 1",
		`monitor_alerts_fired_total{rule="deadline",severity="warning"} 1`,
		"monitor_deadline_misses_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsEndpointWithoutRegistry(t *testing.T) {
	m := testMonitor(Options{})
	srv := httptest.NewServer(NewServer(m, nil).Handler())
	defer srv.Close()
	code, _, _ := get(t, srv, "/metrics")
	if code != 404 {
		t.Errorf("metrics without registry = %d, want 404", code)
	}
}

func TestStatusEndpoint(t *testing.T) {
	_, _, srv := testServer(t)
	code, body, ctype := get(t, srv, "/api/status")
	if code != 200 || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("status = %d %s", code, ctype)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status is not JSON: %v\n%s", err, body)
	}
	if len(st.Runs) != 1 {
		t.Fatalf("status runs = %+v, want 1 entry", st.Runs)
	}
	r := st.Runs[0]
	if r.Forecast != "f" || r.Day != 4 || r.State != RunLate {
		t.Errorf("run = %+v, want f day 4 late", r)
	}
	if r.Budget >= 0 {
		t.Errorf("late run budget = %v, want negative", r.Budget)
	}
	if st.Summary.Late != 1 || st.Summary.AlertsFiring != 1 {
		t.Errorf("summary = %+v", st.Summary)
	}
}

func TestAlertsEndpoint(t *testing.T) {
	m, _, srv := testServer(t)
	code, body, _ := get(t, srv, "/api/alerts")
	if code != 200 {
		t.Fatalf("alerts status = %d", code)
	}
	var alerts []Alert
	if err := json.Unmarshal([]byte(body), &alerts); err != nil {
		t.Fatalf("alerts is not JSON: %v\n%s", err, body)
	}
	if len(alerts) != len(m.Alerts()) || len(alerts) == 0 {
		t.Fatalf("alerts = %+v", alerts)
	}
	if alerts[0].Rule != "deadline" || alerts[0].Severity != SevCritical {
		t.Errorf("alert = %+v, want escalated deadline alert", alerts[0])
	}

	// The ?state=firing filter returns only active alerts.
	_, body, _ = get(t, srv, "/api/alerts?state=firing")
	var firing []Alert
	if err := json.Unmarshal([]byte(body), &firing); err != nil {
		t.Fatal(err)
	}
	if len(firing) != 1 {
		t.Errorf("firing alerts = %+v, want 1", firing)
	}
}

func TestSLOEndpoint(t *testing.T) {
	_, _, srv := testServer(t)
	code, body, _ := get(t, srv, "/api/slo")
	if code != 200 {
		t.Fatalf("slo status = %d", code)
	}
	var rep SLOReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("slo is not JSON: %v\n%s", err, body)
	}
	if rep.Total.Late != 1 || rep.Total.Runs != 1 {
		t.Errorf("slo total = %+v, want 1 late of 1", rep.Total)
	}
}

func TestDashboardEndpoint(t *testing.T) {
	_, _, srv := testServer(t)
	code, body, ctype := get(t, srv, "/")
	if code != 200 || !strings.HasPrefix(ctype, "text/html") {
		t.Fatalf("dashboard = %d %s", code, ctype)
	}
	for _, want := range []string{"control room", "api/status", "<table"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	// Unknown paths are 404, not the dashboard.
	if code, _, _ := get(t, srv, "/nosuch"); code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

// TestReportEndpoints covers GET /api/{name}: each dashboard panel's
// report is 404 until attached and serves what its function returns once
// it is, unknown names are 404, and the fixed /api routes keep their own
// handlers even when a report is attached under the same name.
func TestReportEndpoints(t *testing.T) {
	panels := []string{"harvest", "utilization", "forensics", "spc", "engine", "serving"}
	m, _, bare := testServer(t)
	for _, name := range append(panels, "nosuch") {
		if code, _, _ := get(t, bare, "/api/"+name); code != 404 {
			t.Errorf("unattached /api/%s = %d, want 404", name, code)
		}
	}

	s := NewServer(m, nil)
	for _, name := range append(panels, "status", "alerts", "slo") {
		s.Attach(name, func() any { return map[string]string{"report": name} })
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, name := range panels {
		code, body, ctype := get(t, srv, "/api/"+name)
		var got map[string]string
		if code != 200 || !strings.HasPrefix(ctype, "application/json") ||
			json.Unmarshal([]byte(body), &got) != nil || got["report"] != name {
			t.Errorf("attached /api/%s = %d %s %s", name, code, ctype, body)
		}
	}
	if code, _, _ := get(t, srv, "/api/nosuch"); code != 404 {
		t.Errorf("/api/nosuch = %d, want 404", code)
	}

	var st Status
	var alerts []Alert
	var slo SLOReport
	for path, v := range map[string]any{"/api/status": &st, "/api/alerts": &alerts, "/api/slo": &slo} {
		code, body, _ := get(t, srv, path)
		if code != 200 || strings.Contains(body, `"report"`) {
			t.Errorf("%s = %d, served an attached report: %s", path, code, body)
		}
		if err := json.Unmarshal([]byte(body), v); err != nil {
			t.Errorf("%s: %v\n%s", path, err, body)
		}
	}
	if len(st.Runs) != 1 || len(alerts) == 0 || slo.Total.Runs != 1 {
		t.Errorf("fixed routes lost their payloads: %d runs, %d alerts, slo %+v", len(st.Runs), len(alerts), slo.Total)
	}
}

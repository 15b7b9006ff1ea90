package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the factory command: a copy
// re-executed with FACTORY_TEST_RUN_MAIN=1 runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("FACTORY_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestServingNodeInUtilizationHeatmap: the edge adds its public-server
// node after the utilization sampler attached, so the node's heatmap row
// holds data only if the sampler tracks nodes added late.
func TestServingNodeInUtilizationHeatmap(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-scenario", "fig8", "-days", "2", "-usage-interval", "30", "-serving-users", "50")
	cmd.Env = append(os.Environ(), "FACTORY_TEST_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("factory exited with %v:\n%s", err, out)
	}
	row := regexp.MustCompile(`(?m)^public-server +\|.*$`).Find(out)
	if row == nil || bytes.Contains(row, []byte("·")) {
		t.Errorf("public-server heatmap row %q is missing or has columns with no data:\n%s", row, out)
	}
}

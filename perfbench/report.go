package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// report runs each workload n times, seeds 1..n, each run in its own
// child process (like separate benchmark invocations), and prints every
// metric's median, quartiles, and spread — (q3−q1)/median — next to its
// bound. A spread under a third of the bound counts as resolved: two sets
// of runs of the same code then agree well inside the bound.
func report(n int, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-26s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, w := range workloads {
		values := make(map[string][]float64)
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %v\n%s", w.name, seed, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %v", w.name, seed, err)
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "%s seed %d: %d of %d checks failed\n%s", w.name, seed, res.Failed, res.Attempted, stderr.String())
			}
			fmt.Fprintf(os.Stderr, "%s seed %d:", w.name, seed)
			for _, m := range endToEnd {
				mv := res.Metrics[m.Name]
				values[m.Name] = append(values[m.Name], mv.Value)
				fmt.Fprintf(os.Stderr, " %s=%s", m.Name, fmtMetric(mv.Value))
			}
			fmt.Fprintln(os.Stderr)
		}
		for _, m := range endToEnd {
			xs := values[m.Name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := ratio(q3-q1, med)
			verdict := "-"
			if m.Bound > 0 {
				verdict = "resolved"
				switch {
				case spread > m.Bound:
					verdict = "OVER BOUND"
				case spread > m.Bound/3:
					verdict = "unresolved"
				}
			}
			fmt.Printf("%-12s %-26s %12s %12s %12s %8.4f %6.2f  %s\n", w.name, m.Name,
				fmtMetric(med), fmtMetric(q1), fmtMetric(q3), spread, m.Bound, verdict)
		}
	}
	return nil
}

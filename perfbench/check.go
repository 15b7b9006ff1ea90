package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Outcome check: every record of a run is hashed and compared with the
// hashes recorded for the same workload and seed (reference.json, written
// by -record). Seeds without a reference are checked for invariants only.

// referenceSeeds are recorded: the default seed and one held out from
// tuning.
var referenceSeeds = []int64{0, 101}

//go:embed reference.json
var referenceJSON []byte

// reference maps workload → seed → sorted record hashes.
type reference map[string]map[string][]string

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("parse reference.json: %w", err)
	}
	return ref, nil
}

func recordHash(key, text string) string {
	h := fnv.New32a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(text))
	return fmt.Sprintf("%08x", h.Sum32())
}

// hashes returns the outcome's record hashes, sorted.
func (o *outcome) hashes() []string {
	out := make([]string, 0, len(o.records))
	for k, v := range o.records {
		out = append(out, recordHash(k, v))
	}
	sort.Strings(out)
	return out
}

// verdict is one run's check: records and invariants attempted, and
// those that failed, with a line for each failure.
type verdict struct {
	attempted, failed int
	problems          []string
}

func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.problems = append(v.problems, o.problems...)
}

// referenceSeed maps a seed to the one its inputs are generated from.
func referenceSeed(w workload, seed int64) int64 {
	if !w.seeded {
		return 0
	}
	return seed
}

// check compares an outcome with the reference (when one is recorded for
// the seed) and counts its invariants.
func (ref reference) check(w workload, seed int64, o *outcome) verdict {
	v := verdict{attempted: len(o.records) + o.invariants, failed: len(o.violations)}
	for _, p := range o.violations {
		v.problems = append(v.problems, "invariant: "+p)
	}
	want, ok := ref[w.name][strconv.FormatInt(referenceSeed(w, seed), 10)]
	if !ok {
		return v
	}
	left := make(map[string]int, len(want))
	for _, h := range want {
		left[h]++
	}
	var differ []string
	for k, text := range o.records {
		h := recordHash(k, text)
		if left[h] > 0 {
			left[h]--
			continue
		}
		differ = append(differ, k)
	}
	missing := 0
	for _, n := range left {
		missing += n
	}
	sort.Strings(differ)
	// A changed record shows as one differing key and one unmatched
	// reference hash; count it once.
	failed := max(len(differ), missing)
	v.failed += failed
	v.attempted += max(len(want)-len(o.records), 0)
	if failed > 0 {
		shown := differ
		if len(shown) > 5 {
			shown = shown[:5]
		}
		v.problems = append(v.problems, fmt.Sprintf("%d of %d records differ from the reference (e.g. %s)",
			failed, len(want), strings.Join(shown, ", ")))
	}
	return v
}

// record runs every workload once per reference seed and writes the
// record hashes to path.
func record(path string) error {
	ref := make(reference)
	for _, w := range workloads {
		ref[w.name] = make(map[string][]string)
		for _, seed := range referenceSeeds {
			if referenceSeed(w, seed) != seed {
				continue
			}
			inst, err := w.setup(seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			inst.finish()
			o := inst.outcome()
			if len(o.violations) > 0 {
				return fmt.Errorf("%s seed %d: invariants broken: %s", w.name, seed, strings.Join(o.violations, "; "))
			}
			ref[w.name][strconv.FormatInt(seed, 10)] = o.hashes()
			fmt.Fprintf(os.Stderr, "recorded %s seed %d: %d records\n", w.name, seed, len(o.records))
		}
	}
	// One line per workload and seed keeps the file diffable.
	var b strings.Builder
	b.WriteString("{\n")
	for i, w := range workloads {
		fmt.Fprintf(&b, "  %q: {\n", w.name)
		seeds := make([]string, 0, len(ref[w.name]))
		for s := range ref[w.name] {
			seeds = append(seeds, s)
		}
		sort.Strings(seeds)
		for j, s := range seeds {
			hs, _ := json.Marshal(ref[w.name][s])
			fmt.Fprintf(&b, "    %q: %s", s, hs)
			if j < len(seeds)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString("  }")
		if i < len(workloads)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

package main

import (
	"testing"

	"repro/internal/core"
)

func TestFlagNameLookups(t *testing.T) {
	heuristics := []struct {
		name string
		want core.Heuristic
		ok   bool
	}{
		{"stay-put", core.StayPut, true},
		{"ffd", core.FirstFitDecreasing, true},
		{"bfd", core.BestFitDecreasing, true},
		{"wfd", core.WorstFitDecreasing, true},
		{"", 0, false},
		{"FFD", 0, false},
		{"best-fit", 0, false},
	}
	for _, tc := range heuristics {
		if got, ok := heuristicByName(tc.name); got != tc.want || ok != tc.ok {
			t.Errorf("heuristicByName(%q) = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
	policies := []struct {
		name string
		want core.ReschedulePolicy
		ok   bool
	}{
		{"minimal", core.MinimalMove, true},
		{"reshuffle", core.FullReshuffle, true},
		{"", 0, false},
		{"reshufle", 0, false},
		{"minimal-move", 0, false},
	}
	for _, tc := range policies {
		if got, ok := policyByName(tc.name); got != tc.want || ok != tc.ok {
			t.Errorf("policyByName(%q) = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

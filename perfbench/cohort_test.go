package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareRefusesMixedCohorts(t *testing.T) {
	dir := t.TempDir()
	stamp := cohort{Commit: "a", CPU: "cpu", NProc: 2, GOMAXPROCS: 2, Go: "go1.x", Seed: 1}
	rec := func(c cohort, v float64) record {
		return record{Cohort: c, Workload: "cold", Seconds: 20, Result: result{
			Correct: true, Attempted: 1, Metrics: map[string]metric{"latency_p50_ms": {Value: v, Unit: "ms"}},
		}}
	}
	write := func(name string, recs ...record) string {
		path := filepath.Join(dir, name)
		for _, r := range recs {
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	seed2, newCommit, otherCPU := stamp, stamp, stamp
	seed2.Seed = 2
	newCommit.Commit = "b"
	otherCPU.CPU = "other"
	newCommit2 := newCommit
	newCommit2.Seed = 2

	base := write("base.jsonl", rec(stamp, 10), rec(seed2, 12))
	cand := write("new.jsonl", rec(newCommit, 9), rec(newCommit2, 11))
	var out bytes.Buffer
	if err := compare(base, cand, &out); err != nil {
		t.Fatalf("same cohort, two commits: %v", err)
	}
	if !strings.Contains(out.String(), "latency_p50_ms") || !strings.Contains(out.String(), "change -9.1%") {
		t.Errorf("compare output:\n%s", out.String())
	}

	mixedCPU := write("cpu.jsonl", rec(otherCPU, 9))
	if err := compare(base, mixedCPU, &out); err == nil {
		t.Error("compared runs from different CPUs")
	}
	mixedCommit := write("commits.jsonl", rec(stamp, 10), rec(newCommit, 9))
	if err := compare(mixedCommit, cand, &out); err == nil {
		t.Error("aggregated one side across two commits")
	}
}

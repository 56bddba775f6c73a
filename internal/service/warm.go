package service

import (
	"time"

	udao "repro"
	"repro/internal/runlog"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// WarmCache replays the run registry into the serving cache: the most recent
// record of each distinct request key (workload + objectives + stages +
// shared knobs) is rebuilt and solved to its recorded probe budget, so the
// first live request after a restart is a cache hit instead of a cold solve.
// max bounds how many distinct keys are primed, newest first (0 means all).
// It returns the number of entries actually primed; failures (a workload the
// model server no longer knows, admission pressure) skip the key and are
// logged, never fatal — warm-up is best-effort by design.
func (s *Service) WarmCache(max int) int {
	if s.Runs == nil {
		return 0
	}
	recs := s.Runs.List("", time.Time{}, 0)
	seen := make(map[string]bool)
	warmed := 0
	for i := len(recs) - 1; i >= 0; i-- { // newest first
		if max > 0 && len(seen) >= max {
			break
		}
		req, ok := requestFromRecord(recs[i])
		if !ok || validate(req) != nil {
			continue
		}
		key := requestKey(req)
		if seen[key] {
			continue
		}
		seen[key] = true
		probes := req.Probes
		if probes == 0 {
			probes = 30
		}
		primed, err := s.warmOne(req, probes)
		if err != nil {
			if s.Logger != nil {
				s.Logger.Warn("serving warm-up skipped", "workload", req.Workload, "err", err)
			}
			continue
		}
		if primed {
			warmed++
		}
	}
	return warmed
}

// requestFromRecord reconstructs the /optimize request a record answered —
// exactly the fields requestKey hashes, plus the probe budget. Stage-wise
// records predating the SharedKnobs field cannot be keyed faithfully and are
// skipped rather than primed under a wrong key.
func requestFromRecord(rec runlog.Record) (OptimizeRequest, bool) {
	req := OptimizeRequest{
		Workload:    rec.Workload,
		Objectives:  rec.Objectives,
		Probes:      rec.Probes,
		SharedKnobs: rec.SharedKnobs,
	}
	if rec.Workload == "" {
		return req, false
	}
	for _, st := range rec.Stages {
		if st.Workload == "" {
			return req, false
		}
		req.Stages = append(req.Stages, st.Workload)
	}
	return req, true
}

// warmOne primes one request key through the serving cache. The build runs
// under a "warm" trace run of its own (model fetches and the solve are
// spanned like a live request, so warm-up cost is attributable in the
// timeline) and the lease is released as soon as the solve lands.
func (s *Service) warmOne(req OptimizeRequest, probes int) (primed bool, err error) {
	runID := ""
	var root telemetry.Span
	build := func() (*udao.Optimizer, error) {
		if s.Telemetry != nil {
			runID = s.Telemetry.NextRunID("warm")
			root = s.Telemetry.Trace.StartSpan(telemetry.LevelRun, runID, 0, "service", "warmup")
			s.Server.SetTraceContext(runID, root.ID())
		}
		return s.build(req, probes, runID, root)
	}
	solve := func(opt *udao.Optimizer, delta int) error {
		if runID != "" {
			opt.SetParentSpan(root.ID())
		}
		_, serr := opt.Expand(delta)
		return serr
	}
	primed, err = s.serving().Prime(requestKey(req), probes, build, solve)
	if runID != "" {
		status := ""
		if err != nil {
			status = "error"
		}
		root.End(status, nil)
		s.Server.SetTraceContext("", 0)
	}
	return primed, err
}

// ServingStats exposes the serving-cache counters (tests, the server's
// startup log).
func (s *Service) ServingStats() serving.Stats { return s.serving().Stats() }

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/watch"
)

// watchCmd is the live mode: it polls a running udao-server's /metrics and
// /alerts endpoints and renders a refreshing terminal dashboard — solve
// throughput and SLO burn, evaluation-seam counters, per-phase self-time
// totals, watchdog liveness, and the most recent alerts.
//
//	udao-traceview watch -url http://127.0.0.1:8080
//	udao-traceview watch -url ... -interval 5s -n 1 -no-clear   (one shot)
func watchCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("udao-traceview watch", flag.ContinueOnError)
	fs.SetOutput(out)
	url := fs.String("url", "http://127.0.0.1:8080", "base URL of the running udao-server")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	iters := fs.Int("n", 0, "number of refreshes (0 = until interrupted)")
	noClear := fs.Bool("no-clear", false, "do not clear the screen between refreshes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimRight(*url, "/")
	for i := 0; *iters == 0 || i < *iters; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		metrics, err := fetchMetrics(base + "/metrics")
		if err != nil {
			return err
		}
		alerts, err := fetchAlerts(base + "/alerts?limit=8")
		if err != nil {
			return err
		}
		if !*noClear {
			fmt.Fprint(out, "\033[H\033[2J")
		}
		renderWatch(out, base, metrics, alerts)
	}
	return nil
}

// fetchMetrics pulls and parses a Prometheus text exposition.
func fetchMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// fetchAlerts pulls GET /alerts. A server running without a watchdog answers
// 503; that degrades to an empty list rather than an error.
func fetchAlerts(url string) ([]watch.Alert, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching %s: status %d", url, resp.StatusCode)
	}
	var body struct {
		Alerts []watch.Alert `json:"alerts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	return body.Alerts, nil
}

// parseProm reads the Prometheus text format into a flat series→value map
// (series names keep their label blocks verbatim; # comment lines are
// skipped).
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// renderWatch draws one dashboard frame from a parsed metrics map and the
// recent alerts. Pure function of its inputs, so the frame is golden-testable.
func renderWatch(out io.Writer, source string, m map[string]float64, alerts []watch.Alert) {
	fmt.Fprintf(out, "udao watch — %s\n\n", source)

	solves := m[telemetry.MetricSolveLatency+"_count"]
	solveSum := m[telemetry.MetricSolveLatency+"_sum"]
	sloOK := m[telemetry.MetricSolveSLOOk]
	sloBreach := m[telemetry.MetricSolveSLOBreach]
	burn := "-"
	if sloOK+sloBreach > 0 {
		burn = fmt.Sprintf("%.0f%%", 100*sloBreach/(sloOK+sloBreach))
	}
	mean := "-"
	if solves > 0 {
		mean = fmtSec(solveSum / solves)
	}
	fmt.Fprintf(out, "solves      %.0f total, mean %s | SLO ok %.0f breach %.0f (burn %s)\n",
		solves, mean, sloOK, sloBreach, burn)

	evals := m[telemetry.MetricModelEvals]
	hits := m[telemetry.MetricMemoHits]
	misses := m[telemetry.MetricMemoMisses]
	memoRate := "-"
	if hits+misses > 0 {
		memoRate = fmt.Sprintf("%.0f%%", 100*hits/(hits+misses))
	}
	fmt.Fprintf(out, "evals       %.0f model passes, memo hit rate %s\n", evals, memoRate)

	reqs := m[telemetry.MetricServingRequests]
	servingHits := m[telemetry.MetricServingHits]
	coalesced := m[telemetry.MetricServingCoalesced]
	shed := m[telemetry.MetricShed]
	hitRate, shedRate := "-", "-"
	if reqs > 0 {
		hitRate = fmt.Sprintf("%.0f%%", 100*(servingHits+coalesced)/reqs)
		shedRate = fmt.Sprintf("%.1f%%", 100*shed/reqs)
	}
	fmt.Fprintf(out, "serving     %.0f requests, hit rate %s (%.0f coalesced) | shed rate %s | %.0f cached, %.0f solving\n",
		reqs, hitRate, coalesced, shedRate,
		m[telemetry.MetricServingEntries], m[telemetry.MetricServingInflight])

	fmt.Fprintf(out, "frontier    hypervolume %.4f, coverage %.0f, quality delta %+.4f\n",
		m[telemetry.MetricFrontierHypervolume], m[telemetry.MetricFrontierCoverage], m[telemetry.MetricRunQualityDelta])

	lastEval := "-"
	if v := m[telemetry.MetricWatchLastEval]; v > 0 {
		lastEval = time.Unix(int64(v), 0).UTC().Format(time.RFC3339)
	}
	fmt.Fprintf(out, "watchdog    %.0f sweeps, %.0f alerts, last eval %s\n",
		m[telemetry.MetricWatchEvals], m[telemetry.MetricWatchAlerts], lastEval)

	// Per-phase self-time totals from the udao_phase_seconds family.
	type phaseRow struct {
		phase string
		sum   float64
	}
	var phases []phaseRow
	prefix := telemetry.MetricPhaseSeconds + "{phase="
	for name, v := range m {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, "}_sum") {
			continue
		}
		label := strings.TrimSuffix(strings.TrimPrefix(name, prefix), "}_sum")
		phases = append(phases, phaseRow{phase: strings.Trim(label, `"`), sum: v})
	}
	sort.Slice(phases, func(i, j int) bool {
		if phases[i].sum != phases[j].sum {
			return phases[i].sum > phases[j].sum
		}
		return phases[i].phase < phases[j].phase
	})
	if len(phases) > 0 {
		var total float64
		for _, p := range phases {
			total += p.sum
		}
		fmt.Fprintf(out, "\nphase self time (cumulative)\n")
		for _, p := range phases {
			frac := 0.0
			if total > 0 {
				frac = p.sum / total
			}
			fmt.Fprintf(out, "  %-12s %10s %5.1f%%  %s\n",
				p.phase, fmtSec(p.sum), 100*frac, strings.Repeat("#", int(frac*24+0.5)))
		}
	}

	fmt.Fprintf(out, "\nalerts (most recent first)\n")
	if len(alerts) == 0 {
		fmt.Fprintf(out, "  none\n")
		return
	}
	for _, a := range alerts {
		wl := a.Workload
		if wl == "" {
			wl = "-"
		}
		fmt.Fprintf(out, "  %-12s %-8s %-18s %-10s %s\n",
			a.ID, a.Severity, a.Rule, wl, a.Summary)
	}
}

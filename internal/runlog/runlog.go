// Package runlog is the durable run registry of the serving layer: every
// /optimize call is captured end to end — the request, the resolved variable
// space, the returned frontier, frontier-quality metrics (hypervolume,
// coverage, consistency against the previous run of the same workload,
// uncertain-space fraction), evaluation counters and the telemetry trace run
// ID — and appended as one JSON line to a size-bounded, rotated JSONL file.
//
// The paper evaluates UDAO on frontier *quality* across incremental runs
// (§VI, Expt-1/2), and the online-tuning follow-ups to this line of work rest
// on a persistent history of tuning runs and their measured outcomes. The
// registry is that history layer: an in-memory index (by run ID, workload and
// time) over an append-only log that survives process restarts, including a
// half-written final record (the log is repaired to the last complete line on
// reopen).
//
// Performance contract: Append computes quality metrics and updates the index
// synchronously (cheap: a 2D sweep or one bounded Monte Carlo pass over the
// frontier) but hands the disk write to a buffered background worker, so the
// solve hot path never waits on I/O.
package runlog

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/objective"
)

// QualityUnknown is the sentinel stored for a quality measure that could not
// be computed (degenerate objective box, dimension mismatch against the
// previous run). JSON cannot carry NaN, so the registry maps NaN/Inf to it.
const QualityUnknown = -1

// FrontierPoint is one Pareto point of a recorded run. F is the
// minimization-oriented objective vector (the space all quality metrics are
// computed in); X is the encoded configuration achieving it.
type FrontierPoint struct {
	F []float64 `json:"f"`
	X []float64 `json:"x,omitempty"`
}

// SpaceInfo summarizes the resolved variable space of a run.
type SpaceInfo struct {
	Vars []string `json:"vars,omitempty"`
	Dim  int      `json:"dim"`
}

// StageInfo summarizes one stage of a pipeline run: the stage's name within
// the composite space, the workload whose models served it, and its sub-space
// shape.
type StageInfo struct {
	Name     string   `json:"name"`
	Workload string   `json:"workload,omitempty"`
	Vars     []string `json:"vars,omitempty"`
	Dim      int      `json:"dim"`
}

// Quality holds the frontier-quality metrics of one run, computed by the
// registry at Append time via internal/metrics. Consistency and
// HypervolumeDelta compare against the previous recorded run of the same
// workload with the same objective set (PrevRunID), measured in the
// [utopia, nadir] box spanned by both frontiers together. A value of
// QualityUnknown (-1) means the measure could not be computed.
type Quality struct {
	Hypervolume      float64 `json:"hypervolume"`
	Coverage         int     `json:"coverage"`
	Consistency      float64 `json:"consistency"`
	UncertainFrac    float64 `json:"uncertain_frac"`
	HypervolumeDelta float64 `json:"hypervolume_delta"`
	PrevRunID        string  `json:"prev_run_id,omitempty"`
}

// ExpandStep is one incremental Expand call of a run's Progressive Frontier
// computation (the §IV-A incremental mode), mirrored from core.Run's history.
type ExpandStep struct {
	Probes      int `json:"probes"`
	TotalProbes int `json:"total_probes"`
	Frontier    int `json:"frontier"`
	// Hypervolume after this step, in the box of every plan probed so far
	// (QualityUnknown while the box is degenerate).
	Hypervolume   float64 `json:"hypervolume"`
	UncertainFrac float64 `json:"uncertain_frac"`
	ElapsedSec    float64 `json:"elapsed_sec"`
}

// Record is one registry entry — everything needed to reconstruct what a
// single /optimize call was asked, what it answered, and how good the answer
// was. ID is assigned by the registry ("run-000001", monotonic across
// restarts); TraceRunID joins the record to the telemetry trace sink.
type Record struct {
	ID         string    `json:"id"`
	Time       time.Time `json:"time"`
	Workload   string    `json:"workload"`
	Objectives []string  `json:"objectives"`
	Weights    []float64 `json:"weights,omitempty"`
	Probes     int       `json:"probes"`
	Space      SpaceInfo `json:"space"`

	// Stages describes the pipeline structure of a stage-wise run (nil for
	// flat runs); Space then describes the concatenated composite space.
	Stages []StageInfo `json:"stages,omitempty"`
	// SharedKnobs is the request's shared-knob list for stage-wise runs —
	// together with Workload, Objectives and the stage workloads it lets the
	// serving cache rebuild the exact request key at warm-up.
	SharedKnobs []string `json:"shared_knobs,omitempty"`

	Frontier    []FrontierPoint    `json:"frontier"`
	Recommended map[string]float64 `json:"recommended,omitempty"`
	Objective   map[string]float64 `json:"objective_values,omitempty"`
	// StageRecommended is the per-stage view of the recommended configuration
	// for pipeline runs: StageRecommended[stage][knob], shared knobs repeated
	// in every stage they tie.
	StageRecommended map[string]map[string]float64 `json:"stage_recommended,omitempty"`

	// PredictedStd is the predictive standard deviation of each objective's
	// model at the recommended configuration (absent for exact objectives) —
	// what the calibration ledger judges uncertainty-interval coverage
	// against once the actual outcome is observed.
	PredictedStd map[string]float64 `json:"predicted_std,omitempty"`

	// Served says how the serving layer satisfied the request: "hit" (cached
	// frontier), "solve" (built and solved), "expand" (cached run resumed) or
	// "coalesced" (shared another request's in-flight solve) — distinguishes
	// cached from fresh recommendations in the ledger and in GET /runs.
	Served string `json:"served,omitempty"`

	Quality Quality `json:"quality"`

	Evals      uint64       `json:"evals"`
	MemoHits   uint64       `json:"memo_hits"`
	MemoMisses uint64       `json:"memo_misses"`
	SolveSec   float64      `json:"solve_sec"`
	Expands    []ExpandStep `json:"expands,omitempty"`

	TraceRunID string `json:"trace_run_id,omitempty"`

	// RootSpan is the span ID of this request's root span. Cached optimizers
	// keep one trace run ID across many requests; the root span ID is what
	// isolates this record's subtree in the shared event stream (span IDs are
	// process-unique and strictly increasing).
	RootSpan uint64 `json:"root_span,omitempty"`

	// PhaseBreakdown maps phase labels ("service", "pf", "mogd", "eval",
	// "model", "stage:<name>") to per-phase self time in seconds, computed
	// from the request's span subtree. Self times sum to the root span's
	// duration, just under SolveSec; absent when tracing was off for the run.
	PhaseBreakdown map[string]float64 `json:"phase_breakdown,omitempty"`
}

// Options tunes a registry.
type Options struct {
	// MaxBytes bounds the active JSONL file; on overflow it rotates to
	// path.1 … path.Keep (<= 0 uses DefaultMaxBytes).
	MaxBytes int64
	// Keep is the number of rotated files retained (<= 0 uses DefaultKeep).
	Keep int
	// Buffer is the async write queue depth (<= 0 uses 256). A full queue
	// makes Append block until the worker drains — backpressure, not loss.
	Buffer int
	// Now is a test hook for record timestamps (nil uses time.Now).
	Now func() time.Time
}

// Registry is the durable run registry: an append-only rotated JSONL file
// plus an in-memory index over every complete record. Safe for concurrent
// use.
type Registry struct {
	path string
	now  func() time.Time

	mu         sync.RWMutex
	byID       map[string]*Record
	order      []*Record            // append order (time order for live appends)
	byWorkload map[string][]*Record // same order, split per workload
	seq        uint64

	file    *RotatingFile
	ch      chan []byte
	pending sync.WaitGroup
	done    chan struct{}
	lifeMu  sync.RWMutex // guards closed against in-flight Appends
	closed  bool
	lastErr atomic.Value // error
}

// Open loads the registry at path (rotated files oldest-first, then the
// active file), indexing only complete records, repairs a truncated final
// line by truncating the active file to its last complete record, and starts
// the background writer.
func Open(path string, opts Options) (*Registry, error) {
	r := &Registry{
		path:       path,
		now:        opts.Now,
		byID:       map[string]*Record{},
		byWorkload: map[string][]*Record{},
		done:       make(chan struct{}),
	}
	if r.now == nil {
		r.now = time.Now
	}
	keep := opts.Keep
	if keep <= 0 {
		keep = DefaultKeep
	}
	// Oldest rotated file first so the in-memory order matches append order.
	for i := keep; i >= 1; i-- {
		recs, _, err := readRecords(RotatedPath(path, i))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		r.indexAll(recs)
	}
	recs, complete, err := readRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	r.indexAll(recs)
	if err == nil {
		// Repair a half-written final record: without this, the next append
		// would concatenate onto the partial line and corrupt both records.
		if st, serr := os.Stat(path); serr == nil && st.Size() > complete {
			if terr := os.Truncate(path, complete); terr != nil {
				return nil, fmt.Errorf("runlog: repairing %s: %w", path, terr)
			}
		}
	}
	f, err := OpenRotating(path, opts.MaxBytes, opts.Keep)
	if err != nil {
		return nil, err
	}
	r.file = f
	buf := opts.Buffer
	if buf <= 0 {
		buf = 256
	}
	r.ch = make(chan []byte, buf)
	go r.writer()
	return r, nil
}

// readRecords parses the JSONL file at path, returning the complete records
// and the byte offset just past the last complete line. Unparseable interior
// lines are skipped (not indexed); a missing trailing newline or a partial
// final line leaves that tail out of the completed offset.
func readRecords(path string) (recs []Record, complete int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	if st, serr := f.Stat(); serr != nil || !st.Mode().IsRegular() {
		// A directory or special file squatting on the path holds no records;
		// it will surface as a write error when rotation reaches it.
		return nil, 0, nil
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var offset int64
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line)) + 1 // +1 for the newline Scan strips
		// A final line without a trailing newline is indistinguishable from
		// a complete one via Scanner alone; detect it by comparing offsets
		// against the file size afterwards.
		var rec Record
		if jerr := json.Unmarshal(line, &rec); jerr == nil && rec.ID != "" {
			if offset+lineLen <= fileSize(f) {
				recs = append(recs, rec)
				complete = offset + lineLen
			}
		}
		offset += lineLen
	}
	if serr := sc.Err(); serr != nil {
		return recs, complete, serr
	}
	return recs, complete, nil
}

func fileSize(f *os.File) int64 {
	st, err := f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// indexAll inserts loaded records, keeping seq past the largest numeric ID.
func (r *Registry) indexAll(recs []Record) {
	for i := range recs {
		rec := recs[i]
		if _, dup := r.byID[rec.ID]; dup {
			continue
		}
		r.insertLocked(&rec)
		var n uint64
		if _, err := fmt.Sscanf(rec.ID, "run-%d", &n); err == nil && n > r.seq {
			r.seq = n
		}
	}
}

func (r *Registry) insertLocked(rec *Record) {
	r.byID[rec.ID] = rec
	r.order = append(r.order, rec)
	r.byWorkload[rec.Workload] = append(r.byWorkload[rec.Workload], rec)
}

// Append assigns an ID and timestamp (if unset), computes the quality block
// against the previous run of the same workload, indexes the record, and
// queues the disk write. The returned record carries the assigned ID and
// computed quality. Disk errors surface asynchronously via Err.
func (r *Registry) Append(rec Record) (Record, error) {
	r.lifeMu.RLock()
	defer r.lifeMu.RUnlock()
	if r.closed {
		return rec, errors.New("runlog: registry closed")
	}
	r.mu.Lock()
	if rec.Time.IsZero() {
		rec.Time = r.now()
	}
	if rec.ID == "" {
		r.seq++
		rec.ID = fmt.Sprintf("run-%06d", r.seq)
	}
	r.computeQualityLocked(&rec)
	for i := range rec.Expands {
		rec.Expands[i].Hypervolume = sanitize(rec.Expands[i].Hypervolume)
		rec.Expands[i].UncertainFrac = sanitize(rec.Expands[i].UncertainFrac)
	}
	stored := rec
	r.insertLocked(&stored)
	r.mu.Unlock()

	line, err := json.Marshal(&rec)
	if err != nil {
		return rec, fmt.Errorf("runlog: encoding record %s: %w", rec.ID, err)
	}
	line = append(line, '\n')
	r.pending.Add(1)
	// A full queue blocks rather than drops — the registry is the system of
	// record, and the worker keeps draining, so this is backpressure only.
	r.ch <- line
	return rec, nil
}

// writer drains queued lines to the rotated file.
func (r *Registry) writer() {
	defer close(r.done)
	for line := range r.ch {
		if _, err := r.file.Write(line); err != nil {
			r.lastErr.Store(err)
		}
		r.pending.Done()
	}
}

// computeQualityLocked fills rec.Quality from the frontier and the previous
// record of the same workload+objectives. All measures are taken in the
// [utopia, nadir] box spanned by the union of both frontiers, so consecutive
// runs are compared on equal footing.
func (r *Registry) computeQualityLocked(rec *Record) {
	pts := frontierPoints(rec.Frontier)
	prev := r.prevComparableLocked(rec)
	all := pts
	var prevPts []objective.Point
	if prev != nil {
		prevPts = frontierPoints(prev.Frontier)
		all = append(append([]objective.Point{}, pts...), prevPts...)
	}
	q := &rec.Quality
	q.Hypervolume, q.Coverage, q.Consistency, q.HypervolumeDelta = QualityUnknown, 0, 0, 0
	if len(all) == 0 {
		return
	}
	utopia, nadir := objective.Bounds(all)
	q.Hypervolume = sanitize(metrics.Hypervolume(pts, utopia, nadir))
	q.Coverage = metrics.Coverage(pts, utopia, nadir)
	if prev != nil {
		q.PrevRunID = prev.ID
		q.Consistency = sanitize(metrics.Consistency(prevPts, pts, utopia, nadir))
		prevHV := metrics.Hypervolume(prevPts, utopia, nadir)
		if hv := q.Hypervolume; hv != QualityUnknown && !math.IsNaN(prevHV) {
			q.HypervolumeDelta = hv - prevHV
		} else {
			q.HypervolumeDelta = QualityUnknown
		}
	}
	q.UncertainFrac = sanitize(q.UncertainFrac)
}

// prevComparableLocked returns the latest indexed record of the same
// workload with the same objective set and frontier dimensionality.
func (r *Registry) prevComparableLocked(rec *Record) *Record {
	hist := r.byWorkload[rec.Workload]
	for i := len(hist) - 1; i >= 0; i-- {
		p := hist[i]
		if sameObjectives(p.Objectives, rec.Objectives) {
			return p
		}
	}
	return nil
}

func sameObjectives(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func frontierPoints(fps []FrontierPoint) []objective.Point {
	out := make([]objective.Point, 0, len(fps))
	for _, fp := range fps {
		if len(fp.F) > 0 {
			out = append(out, objective.Point(fp.F))
		}
	}
	return out
}

// sanitize maps NaN/Inf (the metrics package's degenerate-box sentinels) to
// QualityUnknown so records always marshal to valid JSON.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return QualityUnknown
	}
	return v
}

// Get returns the record with the given ID.
func (r *Registry) Get(id string) (Record, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.byID[id]
	if !ok {
		return Record{}, false
	}
	return *rec, true
}

// List returns records in append order, optionally filtered to a workload
// and to Time >= since, keeping only the most recent `limit` (limit <= 0
// returns all matches).
func (r *Registry) List(workload string, since time.Time, limit int) []Record {
	r.mu.RLock()
	src := r.order
	if workload != "" {
		src = r.byWorkload[workload]
	}
	out := make([]Record, 0, len(src))
	for _, rec := range src {
		if !since.IsZero() && rec.Time.Before(since) {
			continue
		}
		out = append(out, *rec)
	}
	r.mu.RUnlock()
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Workloads returns the distinct workloads with recorded runs, sorted.
func (r *Registry) Workloads() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byWorkload))
	for w := range r.byWorkload {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of indexed records.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}

// Path returns the active JSONL file path.
func (r *Registry) Path() string { return r.path }

// Err returns the registry's writability status (nil when healthy) — the
// registry half of the service's readiness gate: the most recent
// asynchronous write error, or a closed registry.
func (r *Registry) Err() error {
	r.lifeMu.RLock()
	closed := r.closed
	r.lifeMu.RUnlock()
	if closed {
		return errors.New("runlog: registry closed")
	}
	return r.writeErr()
}

// writeErr returns the most recent asynchronous write error.
func (r *Registry) writeErr() error {
	if err, ok := r.lastErr.Load().(error); ok {
		return err
	}
	return nil
}

// Sync waits for every queued record to reach the file and flushes it. For
// use at checkpoints (tests, shutdown), not on the serving path.
func (r *Registry) Sync() error {
	r.pending.Wait()
	if err := r.Err(); err != nil {
		return err
	}
	return r.file.Sync()
}

// Close drains the queue and closes the file. Further Appends fail.
func (r *Registry) Close() error {
	r.lifeMu.Lock()
	if r.closed {
		r.lifeMu.Unlock()
		return nil
	}
	r.closed = true
	r.lifeMu.Unlock()
	r.pending.Wait()
	close(r.ch)
	<-r.done
	err := r.writeErr()
	if cerr := r.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads every complete record from the registry files at path (rotated
// oldest-first, then the active file) without opening them for writing —
// the offline access path used by udao-traceview. A missing active file with
// no rotated siblings is an error.
func Load(path string) ([]Record, error) {
	var out []Record
	seen := map[string]bool{}
	found := false
	for i := DefaultKeep + 8; i >= 1; i-- {
		recs, _, err := readRecords(RotatedPath(path, i))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return nil, err
		}
		found = true
		for _, rec := range recs {
			if !seen[rec.ID] {
				seen[rec.ID] = true
				out = append(out, rec)
			}
		}
	}
	recs, _, err := readRecords(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) || !found {
			return nil, fmt.Errorf("runlog: %w", err)
		}
	} else {
		found = true
		for _, rec := range recs {
			if !seen[rec.ID] {
				seen[rec.ID] = true
				out = append(out, rec)
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("runlog: no registry files at %s", path)
	}
	return out, nil
}

// FormatID reports whether id looks like a registry run ID ("run-000001") —
// used by CLI argument dispatch to distinguish run IDs from workload names.
func FormatID(id string) bool {
	return strings.HasPrefix(id, "run-") && len(id) > 4
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Times are nanoseconds since the log's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps every span of the traced run in memory until it is written
// out at the end, together with each traced request's self-time summary.
type spanLog struct {
	epoch time.Time
	ids   atomic.Uint64

	mu        sync.Mutex
	spans     []span
	summaries []summary
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// reqSpans collects the spans of one traced request. It is used by one
// goroutine at a time.
type reqSpans struct {
	log   *spanLog
	req   int
	spans []span
}

func (l *spanLog) request(req int) *reqSpans { return &reqSpans{log: l, req: req} }

// begin opens a span under parent (0 for the request's root) and returns its
// handle for end and id.
func (r *reqSpans) begin(name string, parent int) int {
	var pid uint64
	if parent >= 0 {
		pid = r.spans[parent].ID
	}
	r.spans = append(r.spans, span{ID: r.log.ids.Add(1), Parent: pid, Req: r.req, Name: name, Start: r.log.now()})
	return len(r.spans) - 1
}

func (r *reqSpans) end(h int) { r.spans[h].End = r.log.now() }

// summary is one traced request: its root's name and wall time, and the
// self time of each span name within it.
type summary struct {
	Req  int
	Root string
	Wall time.Duration
	Self map[string]time.Duration
}

// commit files the request's spans and its summary with the log. It fails
// when the request's self times do not add up to its wall time, which would
// mean a span escaped its parent or two siblings overlapped.
func (r *reqSpans) commit() error {
	if len(r.spans) == 0 {
		return nil
	}
	self := selfTimes(r.spans)
	sum := summary{Req: r.req, Root: r.spans[0].Name, Wall: r.spans[0].dur(), Self: map[string]time.Duration{}}
	var total time.Duration
	for i, s := range r.spans {
		sum.Self[s.Name] += self[i]
		total += self[i]
	}
	r.log.mu.Lock()
	r.log.spans = append(r.log.spans, r.spans...)
	r.log.summaries = append(r.log.summaries, sum)
	r.log.mu.Unlock()
	if total != sum.Wall {
		return fmt.Errorf("request %d: self times sum to %v, wall time is %v", r.req, total, sum.Wall)
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its interval that
// its children cover; overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[uint64][]span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered int64
		cur, curEnd := int64(0), int64(-1)
		flush := func() {
			if curEnd > cur {
				covered += curEnd - cur
			}
		}
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				flush()
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		flush()
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// write saves every span as one JSON line, in start order.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.Slice(l.spans, func(i, j int) bool { return l.spans[i].Start < l.spans[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

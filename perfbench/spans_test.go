package main

import (
	"reflect"
	"testing"
	"time"
)

func TestSelfTimesCountOverlapOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 50 - 10, 30 - 10, 30, 10, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCommitChecksSelfTimesSumToWall(t *testing.T) {
	l := newSpanLog()
	r := l.request(1)
	root := r.begin("request", -1)
	a := r.begin("a", root)
	b := r.begin("b", a)
	r.end(b)
	r.end(a)
	c := r.begin("c", root)
	r.end(c)
	r.end(root)
	if err := r.commit(); err != nil {
		t.Fatal(err)
	}
	s := l.summaries[0]
	var sum time.Duration
	for _, d := range s.Self {
		sum += d
	}
	if s.Root != "request" || sum != s.Wall || len(s.Self) != 4 {
		t.Errorf("summary %+v: self times sum to %v", s, sum)
	}

	// Overlapping siblings would count the shared time twice; commit says so.
	bad := l.request(2)
	bad.spans = []span{
		{ID: 10, Req: 2, Name: "request", Start: 0, End: 100},
		{ID: 11, Parent: 10, Req: 2, Name: "x", Start: 0, End: 60},
		{ID: 12, Parent: 10, Req: 2, Name: "y", Start: 50, End: 100},
	}
	if err := bad.commit(); err == nil {
		t.Error("commit accepted overlapping siblings")
	}
}

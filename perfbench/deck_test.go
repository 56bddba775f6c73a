package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
)

func TestDecksArePureFunctionsOfTheSeed(t *testing.T) {
	decks := map[string]func(seed int64, i int) request{
		"hit":         hitRequest,
		"cold":        func(seed int64, i int) request { return roundRequest(coldKeys(), seed, i) },
		"first-touch": func(seed int64, i int) request { return roundRequest(firstTouchKeys(), seed, i) },
	}
	for name, deck := range decks {
		same, differ := true, false
		for i := 0; i < 200; i++ {
			same = same && reflect.DeepEqual(deck(7, i), deck(7, i))
			differ = differ || !reflect.DeepEqual(deck(7, i), deck(8, i))
		}
		if !same || !differ {
			t.Errorf("%s deck: same seed repeats %v, other seed differs %v", name, same, differ)
		}
	}
}

func TestEveryRoundAsksEveryKeyOnce(t *testing.T) {
	for name, keys := range map[string][]service.OptimizeRequest{"hit": hitKeys(), "cold": coldKeys(), "first-touch": firstTouchKeys()} {
		want := map[string]bool{}
		for _, k := range keys {
			want[requestKey(k)] = true
		}
		if len(want) != len(keys) {
			t.Fatalf("%s: %d keys, %d distinct", name, len(keys), len(want))
		}
		for round := 0; round < 4; round++ {
			seen := map[string]bool{}
			for j := 0; j < len(keys); j++ {
				i := round*len(keys) + j
				r := roundRequest(keys, 3, i)
				k := requestKey(r.Body)
				if !want[k] || seen[k] {
					t.Errorf("%s: round %d asks %q again or out of the key set", name, round, k)
				}
				seen[k] = true
				if r.Index != i || r.Served != "solve" || len(r.Body.Weights) != len(r.Body.Objectives) {
					t.Errorf("%s: entry %d = %+v", name, i, r)
				}
			}
		}
	}
	// The cold keys hold two flat 2-objective, two flat 3-objective and
	// three pipeline problems.
	shapes := map[int]int{}
	for _, k := range coldKeys() {
		shape := len(k.Objectives)
		if len(k.Stages) > 0 {
			shape = 0
		}
		shapes[shape]++
	}
	if want := map[int]int{2: 2, 3: 2, 0: 3}; !reflect.DeepEqual(shapes, want) {
		t.Errorf("cold shapes %v, want %v", shapes, want)
	}
}

func TestScheduleIsFixed(t *testing.T) {
	s := step{Rate: 100, Dur: 2 * time.Second}
	if s.count() != 200 || s.due(0) != 0 || s.due(150) != 1500*time.Millisecond {
		t.Errorf("step: count %d, due(150) %v", s.count(), s.due(150))
	}
	a, b := hitLadder(16*time.Second), hitLadder(16*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("ladder differs between calls")
	}
	var total time.Duration
	for i, st := range a {
		total += st.Dur
		want := 2 * time.Second
		if st.Rate == latencyRate {
			want = 8 * time.Second
		}
		if st.Dur != want || (i > 0 && st.Rate <= a[i-1].Rate) {
			t.Errorf("step %d = %+v: want rising rates, %v each and half the time at %v rps", i, st, 2*time.Second, latencyRate)
		}
	}
	if total != 16*time.Second {
		t.Errorf("ladder lasts %v, want 16s", total)
	}
}

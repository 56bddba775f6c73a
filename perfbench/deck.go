package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench/tpcxbb"
	"repro/internal/service"
)

// Workload pools, fixed so that a seed changes the requests' order and
// weights but never which workloads a run can draw from.
var (
	// hitIDs are the two workloads udao-server loads by default.
	hitIDs = []int{1, 9}
	// coldIDs mix SQL and SQL+UDF templates, offline and online workloads.
	coldIDs = []int{1, 9, 14, 30, 100, 200}
	// firstTouchIDs are asked for anew in every first-touch round: each round
	// runs against a fresh model server, so none of them is trained yet.
	firstTouchIDs = []int{2, 4, 6, 8, 10, 12, 14, 16}
)

const (
	servingProbes    = 30 // udao-server's default budget, used for hit and cold
	firstTouchProbes = 10 // the §IV-A "first small frontier"
	observeOneIn     = 5  // hit: one OK response in five is followed by /observe
)

var (
	objs2 = [][]string{{"latency", "cores"}, {"cores", "latency"}, {"latency", "cost2"}, {"cost2", "latency"}}
	objs3 = [][]string{
		{"latency", "cores", "cost2"}, {"latency", "cost2", "cores"}, {"cores", "latency", "cost2"},
		{"cores", "cost2", "latency"}, {"cost2", "latency", "cores"}, {"cost2", "cores", "latency"},
	}
)

// request is one deck entry: the /optimize body plus what the benchmark
// expects of it.
type request struct {
	Index int
	Body  service.OptimizeRequest
	// Served is the serving outcome the response must report.
	Served string
	// Observe asks for a POST /observe of a simulated outcome after an OK
	// response; NoiseSeed seeds that outcome.
	Observe   bool
	NoiseSeed int64
}

func names(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = tpcxbb.ByID(id).Flow.Name
	}
	return out
}

func pipeline(a, b string, objectives []string) service.OptimizeRequest {
	return service.OptimizeRequest{
		Workload:   fmt.Sprintf("pipe-%s-%s", a, b),
		Objectives: objectives,
		Stages:     []string{a, b},
	}
}

// weights draws one preference vector, every weight at least 0.05.
func weights(rng *rand.Rand, k int) []float64 {
	w := make([]float64, k)
	sum := 0.0
	for i := range w {
		w[i] = 0.05 + rng.Float64()
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// hitKeys are the problem keys the hit workload warms during setup: flat
// 2-objective, flat 3-objective and a 2-stage pipeline per workload.
func hitKeys() []service.OptimizeRequest {
	ns := names(hitIDs)
	var keys []service.OptimizeRequest
	for i, n := range ns {
		keys = append(keys,
			service.OptimizeRequest{Workload: n, Objectives: objs2[0]},
			service.OptimizeRequest{Workload: n, Objectives: objs3[0]},
			pipeline(n, ns[(i+1)%len(ns)], objs2[0]))
	}
	for i := range keys {
		keys[i].Probes = servingProbes
	}
	return keys
}

// coldKeys are the cold workload's problem keys over the cold pool: two flat
// 2-objective, two flat 3-objective and three 2-stage pipelines, objective
// orders varied. The shapes cost about 0.4, 0.7 and 1.1 s to solve, so the
// median falls among the flat 3-objective solves and the tail (the tenth
// slowest answer) among the pipelines, however many rounds a run answers;
// with a group's edge near either figure, one round more or less would move
// it to another shape.
func coldKeys() []service.OptimizeRequest {
	ns := names(coldIDs)
	keys := []service.OptimizeRequest{
		{Workload: ns[0], Objectives: objs2[0]},
		{Workload: ns[3], Objectives: objs2[2]},
		{Workload: ns[1], Objectives: objs3[0]},
		{Workload: ns[4], Objectives: objs3[3]},
		pipeline(ns[2], ns[3], objs2[0]),
		pipeline(ns[5], ns[0], objs2[2]),
		pipeline(ns[4], ns[1], objs2[1]),
	}
	for i := range keys {
		keys[i].Probes = servingProbes
	}
	return keys
}

// firstTouchKeys ask each first-touch workload for three objectives at a
// small probe budget.
func firstTouchKeys() []service.OptimizeRequest {
	keys := make([]service.OptimizeRequest, len(firstTouchIDs))
	for i, n := range names(firstTouchIDs) {
		keys[i] = service.OptimizeRequest{Workload: n, Objectives: objs3[0], Probes: firstTouchProbes}
	}
	return keys
}

// roundRequest is entry i of an unbounded deck over keys, a pure function of
// (seed, i). The deck runs in rounds of len(keys) entries: each round asks
// every key once, in an order drawn per round, so every round is the same
// work. Each entry's weights are drawn from the seed.
func roundRequest(keys []service.OptimizeRequest, seed int64, i int) request {
	n := len(keys)
	perm := rand.New(rand.NewSource(seed*1_000_003 + int64(i/n))).Perm(n)
	rng := rand.New(rand.NewSource(seed*1_000_037 + int64(i)))
	body := keys[perm[i%n]]
	body.Weights = weights(rng, len(body.Objectives))
	return request{Index: i, Body: body, Served: "solve", NoiseSeed: rng.Int63()}
}

// hitRequest is entry i of the hit deck: a round deck over hitKeys, every
// answer a cache hit, and in each run of observeOneIn entries one followed by
// an observe.
func hitRequest(seed int64, i int) request {
	req := roundRequest(hitKeys(), seed, i)
	pick := rand.New(rand.NewSource(seed*1_000_033 + int64(i/observeOneIn))).Intn(observeOneIn)
	req.Served = "hit"
	req.Observe = i%observeOneIn == pick
	return req
}

// step is one fixed-rate segment of the open-loop schedule.
type step struct {
	Rate float64 // requests per second
	Dur  time.Duration
}

// count is the number of requests the step schedules.
func (s step) count() int { return int(s.Rate * s.Dur.Seconds()) }

// due is the offset of the step's k-th request from the step's start.
func (s step) due(k int) time.Duration {
	return time.Duration(float64(k) / s.Rate * float64(time.Second))
}

// hitLadder splits the open-loop part of a hit run into fixed-rate steps.
// The step at latencyRate gives the latency figures and takes half the
// time; the others find the capacity. All stay below the hit path's
// saturation (350-500 rps on a 2-vCPU Xeon, where each hit recomputes its
// frontier's uncertain space and appends a run record under the registry's
// lock), past which requests would go unsent.
func hitLadder(open time.Duration) []step {
	rates := []float64{50, latencyRate, 150, 200, 250}
	// Shares of the open-loop time, in eighths.
	shares := []time.Duration{1, 4, 1, 1, 1}
	steps := make([]step, len(rates))
	for i, r := range rates {
		steps[i] = step{Rate: r, Dur: open * shares[i] / 8}
	}
	return steps
}

// latencyRate is the ladder rate whose requests make up the hit workload's
// latency figures.
const latencyRate = 100

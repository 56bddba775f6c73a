package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// outcome is what happened to one deck entry in the untraced run. Times are
// offsets from the run's epoch; Due is zero in a closed loop, where a request
// is due when a client picks it.
type outcome struct {
	req             request
	sent, done      time.Duration
	due             time.Duration
	status          int
	resp            *service.OptimizeResponse
	err             error
	observed        bool // a POST /observe followed
	observeStatus   int
	observeDuration time.Duration
}

// latency is the request's time from when it was due (open loop) or sent
// (closed loop) to its response.
func (o *outcome) latency() time.Duration {
	if o.due > 0 {
		return o.done - o.due
	}
	return o.done - o.sent
}

// client is the load side: at most conns connections to the service.
type client struct {
	base  string
	http  *http.Client
	epoch time.Time
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: time.Minute}, epoch: time.Now()}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) now() time.Duration { return time.Since(c.epoch) }

func (c *client) post(path string, body any, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// do sends one request and, when the deck asks for it and the answer is OK,
// reports a simulated outcome of the recommendation over POST /observe.
func (c *client) do(o *outcome) {
	o.sent = c.now()
	var resp service.OptimizeResponse
	o.status, o.err = c.post("/optimize", o.req.Body, &resp)
	o.done = c.now()
	if o.err == nil && o.status == http.StatusOK {
		o.resp = &resp
	}
	if !o.req.Observe || o.resp == nil || o.resp.RunRecord == "" {
		return
	}
	t0 := time.Now()
	o.observed = true
	o.observeStatus, _ = c.post("/observe", observation(o.req, o.resp), nil)
	o.observeDuration = time.Since(t0)
}

// observation simulates executing the recommended configuration: an outcome
// equal to the prediction up to 5% unbiased noise.
func observation(req request, resp *service.OptimizeResponse) service.ObserveRequest {
	rng := rand.New(rand.NewSource(req.NoiseSeed))
	keys := make([]string, 0, len(resp.Objectives))
	for k := range resp.Objectives {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	actual := make(map[string]float64, len(keys))
	for _, k := range keys {
		actual[k] = resp.Objectives[k] * (1 + 0.05*rng.NormFloat64())
	}
	return service.ObserveRequest{Run: resp.RunRecord, Actual: actual}
}

// closedLoop runs `clients` clients, each sending its next deck entry when
// its previous one is answered, until the deck runs out or, for d > 0, d
// has passed.
func (c *client) closedLoop(deck func(i int) (request, bool), clients int, d time.Duration) []*outcome {
	stop := c.now() + d
	if d <= 0 {
		stop = math.MaxInt64
	}
	var next atomic.Int64
	var mu sync.Mutex
	var out []*outcome
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c.now() < stop {
				req, ok := deck(int(next.Add(1) - 1))
				if !ok {
					return
				}
				o := &outcome{req: req}
				c.do(o)
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].req.Index < out[j].req.Index })
	return out
}

// stepResult is one fixed-rate step of the open loop.
type stepResult struct {
	step
	outcomes []*outcome
	// missed counts scheduled requests never sent: due before the step's
	// deadline but still unsent when it passed.
	missed int
	// lags are send time minus due time; backlogMax is the most requests
	// that were due and unsent at once.
	lags       []float64
	backlogMax int
}

// openLoop sends the step's requests at their due times on `conns`
// connections. Workers take requests in schedule order; a request whose due
// time has passed waits for a free connection rather than being dropped, and
// its latency counts from its due time. Requests still unsent `grace` after
// the step's last due time are never sent and count as missed.
func (c *client) openLoop(s step, first int, deck func(i int) request, conns int, grace time.Duration) stepResult {
	n := s.count()
	start := c.now() + time.Millisecond
	deadline := start + s.Dur + grace
	var next atomic.Int64
	var mu sync.Mutex
	res := stepResult{step: s}
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start + s.due(k)
				if wait := due - c.now(); wait > 0 {
					time.Sleep(wait)
				}
				now := c.now()
				if now > deadline {
					// Every later request is overdue too, so the loop
					// drains the rest of the step without sleeping.
					mu.Lock()
					res.missed++
					mu.Unlock()
					continue
				}
				// Requests due by now and not yet taken, this one included.
				backlog := int(float64(now-start)/float64(time.Second)*s.Rate) + 1 - k
				o := &outcome{req: deck(first + k), due: due}
				c.do(o)
				mu.Lock()
				res.outcomes = append(res.outcomes, o)
				res.lags = append(res.lags, msOf(o.sent-due))
				res.backlogMax = max(res.backlogMax, min(backlog, n-k))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(res.outcomes, func(i, j int) bool { return res.outcomes[i].req.Index < res.outcomes[j].req.Index })
	return res
}

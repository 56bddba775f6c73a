package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	udao "repro"
	"repro/internal/service"
	"repro/internal/space"
)

// checkResponse returns "" when resp is a correct answer to req, else the
// first thing wrong with it: the status, a knob missing or out of range, a
// non-finite objective, an empty frontier, or a serving outcome other than
// the workload's (which is how cache-key aliasing would show).
func checkResponse(spc *space.Space, req request, status int, resp *service.OptimizeResponse) string {
	if status != http.StatusOK {
		return fmt.Sprintf("status %d", status)
	}
	if resp == nil {
		return "no response body"
	}
	if resp.Served != req.Served {
		return fmt.Sprintf("served %q, want %q", resp.Served, req.Served)
	}
	if resp.FrontierPoints < 1 {
		return fmt.Sprintf("frontier_points %d", resp.FrontierPoints)
	}
	for _, o := range req.Body.Objectives {
		v, ok := resp.Objectives[o]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprintf("objective %s = %v (present %v)", o, v, ok)
		}
	}
	if msg := checkKnobs(spc.Vars, resp.Config); msg != "" {
		return "config: " + msg
	}
	for _, st := range req.Body.Stages {
		if msg := checkKnobs(spc.Vars, resp.StageConfigs[st]); msg != "" {
			return fmt.Sprintf("stage %s: %s", st, msg)
		}
	}
	return ""
}

// checkKnobs reports the first knob of vars that conf lacks or holds out of
// range. Pipelines in this benchmark share every knob across stages, so the
// flat config and each stage's config both cover exactly the server space.
func checkKnobs(vars []udao.Var, conf map[string]float64) string {
	if len(conf) != len(vars) {
		return fmt.Sprintf("%d knobs, want %d", len(conf), len(vars))
	}
	for _, v := range vars {
		x, ok := conf[v.Name]
		if !ok {
			return fmt.Sprintf("knob %s missing", v.Name)
		}
		lo, hi, integral := v.Min, v.Max, v.Kind != space.Continuous
		switch v.Kind {
		case space.Boolean:
			lo, hi = 0, 1
		case space.Categorical:
			lo, hi = 0, float64(len(v.Levels)-1)
		}
		if math.IsNaN(x) || x < lo || x > hi || (integral && x != math.Round(x)) {
			return fmt.Sprintf("knob %s = %v outside [%v, %v]", v.Name, x, lo, hi)
		}
	}
	return ""
}

// recommendation is what two runs of the same request must agree on byte for
// byte: the recommended configuration with its predicted objectives, and the
// frontier it was picked from.
type recommendation struct {
	Config         map[string]float64            `json:"config"`
	Objectives     map[string]float64            `json:"objectives"`
	StageConfigs   map[string]map[string]float64 `json:"stage_configs,omitempty"`
	FrontierPoints int                           `json:"frontier_points"`
	UncertainSpace float64                       `json:"uncertain_space"`
}

func recommendationOf(resp *service.OptimizeResponse) []byte {
	b, err := json.Marshal(recommendation{resp.Config, resp.Objectives, resp.StageConfigs, resp.FrontierPoints, resp.UncertainSpace})
	if err != nil {
		// Non-finite values cannot be marshalled; checkResponse has already
		// failed such a response, so it needs no comparable form.
		return []byte(err.Error())
	}
	return b
}

// digestFirst is how many deck entries the digest covers: every run answers
// at least these, so runs of one seed print the same digest.
const digestFirst = 12

// digest hashes the recommendations of the deck's first digestFirst entries,
// so that runs of one seed, or of two commits, can be compared at a glance.
func digest(recs map[int][]byte) string {
	h := sha256.New()
	for i := 0; i < digestFirst; i++ {
		fmt.Fprintf(h, "%d %s\n", i, recs[i])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

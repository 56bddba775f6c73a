package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// cohort identifies the conditions a result was measured under. Results of
// different cohorts are never aggregated or compared.
type cohort struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Seed       int64  `json:"seed"`
}

func stampCohort(seed int64) cohort {
	return cohort{
		Commit:     commit(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Seed:       seed,
	}
}

// commit is the VCS revision the binary was built from, or, in a checkout
// without version control, a digest of the Go sources under the working
// directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// record is one run as --out appends it: the cohort, the run's settings and
// its result line.
type record struct {
	Cohort   cohort `json:"cohort"`
	Workload string `json:"workload"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
}

// sameCohort reports why two stamps may not be compared: everything but the
// seed must match within one side, and everything but the seed and the
// commit across sides.
func sameCohort(a, b cohort, acrossCommits bool) error {
	a.Seed, b.Seed = 0, 0
	if acrossCommits {
		a.Commit, b.Commit = "", ""
	}
	if a != b {
		return fmt.Errorf("mixed cohorts: %+v vs %+v", a, b)
	}
	return nil
}

// compare prints, per workload and metric, the median and quartiles of the
// base runs and the median of the new runs with its change. It refuses
// (returns an error) when the runs do not all share one cohort.
func compare(basePath, newPath string, out io.Writer) error {
	base, err := loadRecords(basePath)
	if err != nil {
		return err
	}
	cand, err := loadRecords(newPath)
	if err != nil {
		return err
	}
	if len(base) == 0 || len(cand) == 0 {
		return fmt.Errorf("compare: both files need at least one record")
	}
	for _, side := range [][]record{base, cand} {
		for _, r := range side[1:] {
			if err := sameCohort(side[0].Cohort, r.Cohort, false); err != nil {
				return err
			}
		}
	}
	if err := sameCohort(base[0].Cohort, cand[0].Cohort, true); err != nil {
		return err
	}
	type key struct{ workload, metric, unit string }
	values := func(recs []record) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range recs {
			for name, v := range r.Result.Metrics {
				k := key{r.Workload, name, v.Unit}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	bv, cv := values(base), values(cand)
	keys := make([]key, 0, len(bv))
	for k := range bv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(out, "base %s (%d runs) vs new %s (%d runs), cpu %q, GOMAXPROCS %d\n",
		base[0].Cohort.Commit, len(base), cand[0].Cohort.Commit, len(cand), base[0].Cohort.CPU, base[0].Cohort.GOMAXPROCS)
	for _, k := range keys {
		b := bv[k]
		c, ok := cv[k]
		if !ok {
			continue
		}
		q1, q3 := quartiles(b)
		bm, cm := median(b), median(c)
		fmt.Fprintf(out, "%-12s %-24s base %.4g [%.4g, %.4g] (n=%d)  new %.4g (n=%d)  change %+.1f%% %s\n",
			k.workload, k.metric, bm, q1, q3, len(b), cm, len(c), 100*(cm-bm)/bm, k.unit)
	}
	return nil
}

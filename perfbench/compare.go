package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readSpec loads root/BENCHMARK.json.
func readSpec(root string) (benchSpec, error) {
	var spec benchSpec
	path := filepath.Join(root, "BENCHMARK.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runRecord is one saved run: the standard output of one benchmark run.
type runRecord struct {
	file        string
	workload    string
	seed        int64
	trace       int
	fingerprint fingerprint
	result      result
}

// readRun parses a saved run: the info line first, the result last.
func readRun(path string) (runRecord, error) {
	rec := runRecord{file: path}
	f, err := os.Open(path)
	if err != nil {
		return rec, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); strings.HasPrefix(t, "{") {
			lines = append(lines, t)
		}
	}
	if err := sc.Err(); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	if len(lines) < 2 {
		return rec, fmt.Errorf("%s: not a complete run (want an info line and a result line)", path)
	}
	var info struct {
		Workload    string      `json:"workload"`
		Seed        int64       `json:"seed"`
		Trace       int         `json:"trace"`
		Fingerprint fingerprint `json:"fingerprint"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &info); err != nil {
		return rec, fmt.Errorf("%s: info line: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
		return rec, fmt.Errorf("%s: result line: %w", path, err)
	}
	rec.workload, rec.seed, rec.trace, rec.fingerprint = info.Workload, info.Seed, info.Trace, info.Fingerprint
	return rec, nil
}

// readRuns loads every untraced run in dir (files ending in .json or
// .out), ordered by workload and seed.
func readRuns(dir string) ([]runRecord, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []runRecord
	for _, e := range entries {
		if e.IsDir() || !(strings.HasSuffix(e.Name(), ".json") || strings.HasSuffix(e.Name(), ".out")) {
			continue
		}
		r, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if r.trace == 0 {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs", dir)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].workload != out[j].workload {
			return out[i].workload < out[j].workload
		}
		return out[i].seed < out[j].seed
	})
	return out, nil
}

// values collects one metric of one workload, in seed order.
func values(runs []runRecord, workload, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if r.workload != workload {
			continue
		}
		if m, ok := r.result.Metrics[metric]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return math.Abs(q3-q1) / math.Abs(median(vs))
}

// verdict applies the choosing-metrics §8 rule to one (metric,
// workload) pair of parent runs a and change runs b, paired by index.
// moreFailures reports that the change failed more operations than the
// parent on the workload, which rules out a gain. It returns the pairs
// the change won and the verdict.
func verdict(a, b []float64, higherBetter bool, bound float64, moreFailures bool) (wins, pairs int, v string) {
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	ma, mb := median(a), median(b)
	qa1, qa3 := quartiles(a)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := better(ma, mb) && math.Abs(mb-ma) > bound*math.Abs(ma)
	switch {
	case !moreFailures && pairs > 0 && 10*wins >= 9*pairs && better(mb, ma) && math.Abs(mb-ma) > math.Abs(qa3-qa1):
		return wins, pairs, "gain"
	case !moreFailures && allBetter:
		return wins, pairs, "gain"
	case spread(a) > bound || spread(b) > bound:
		return wins, pairs, "unresolved"
	case worse:
		return wins, pairs, "worse"
	}
	return wins, pairs, "same"
}

// failures sums the failed operations of one workload's runs.
func failures(runs []runRecord, workload string) int64 {
	var n int64
	for _, r := range runs {
		if r.workload == workload {
			n += r.result.Failed
		}
	}
	return n
}

// compareMain prints, for each workload and end-to-end metric, each
// side's median and quartiles, their spread against the metric's
// bound, and, given two sets, the pairs the second set won and the
// verdict. With one set it checks steadiness: every spread should stay
// below a third of its bound.
func compareMain(root string, dirs []string, stdout io.Writer) error {
	if len(dirs) < 1 || len(dirs) > 2 {
		return errors.New("usage: compare <parent runs dir> [<change runs dir>]")
	}
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	sets := make([][]runRecord, len(dirs))
	for i, d := range dirs {
		if sets[i], err = readRuns(d); err != nil {
			return err
		}
	}
	for i, set := range sets {
		bad := 0
		for _, r := range set {
			if !r.result.Correct {
				bad++
			}
		}
		if bad > 0 {
			fmt.Fprintf(stdout, "warning: %d runs in %s report correct=false\n", bad, dirs[i])
		}
	}
	if len(sets) == 2 {
		fa, fb := sets[0][0].fingerprint, sets[1][0].fingerprint
		if fa.CPU != fb.CPU || fa.NumCPU != fb.NumCPU || fa.GOMAXPROCS != fb.GOMAXPROCS {
			fmt.Fprintf(stdout, "warning: the sets come from different hosts (%s ×%d vs %s ×%d)\n",
				fa.CPU, fa.NumCPU, fb.CPU, fb.NumCPU)
		}
	}

	tw := &table{}
	if len(sets) == 1 {
		tw.row("workload", "metric", "runs", "median", "q1", "q3", "spread", "bound", "steady")
	} else {
		tw.row("workload", "metric", "bound", "A median", "A q1..q3", "A spread",
			"B median", "B q1..q3", "B spread", "B won", "verdict")
	}
	unsteady := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a := values(sets[0], w.Name, m.Name)
			if len(a) == 0 {
				continue
			}
			qa1, qa3 := quartiles(a)
			if len(sets) == 1 {
				steady := "yes"
				if spread(a) >= m.Bound/3 {
					steady = "no"
					unsteady++
				}
				tw.row(w.Name, m.Name, fmt.Sprint(len(a)), num(median(a)), num(qa1), num(qa3),
					pct(spread(a)), pct(m.Bound), steady)
				continue
			}
			b := values(sets[1], w.Name, m.Name)
			if len(b) == 0 {
				continue
			}
			qb1, qb3 := quartiles(b)
			moreFailures := failures(sets[1], w.Name) > failures(sets[0], w.Name)
			wins, pairs, v := verdict(a, b, m.Better == "higher", m.Bound, moreFailures)
			tw.row(w.Name, m.Name, pct(m.Bound),
				num(median(a)), num(qa1)+".."+num(qa3), pct(spread(a)),
				num(median(b)), num(qb1)+".."+num(qb3), pct(spread(b)),
				fmt.Sprintf("%d/%d", wins, pairs), v)
		}
	}
	tw.write(stdout)
	if len(sets) == 1 && unsteady > 0 {
		fmt.Fprintf(stdout, "%d metric spreads are at or above a third of their bound\n", unsteady)
	}
	return nil
}

func num(v float64) string { return fmt.Sprintf("%.4g", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// table aligns columns of text.
type table struct{ rows [][]string }

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := map[int]int{}
	for _, r := range t.rows {
		for i, c := range r {
			widths[i] = max(widths[i], len(c))
		}
	}
	for _, r := range t.rows {
		var b strings.Builder
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareSets prints, per workload × end-to-end metric, how much worse set
// B's median is than set A's, against the metric's bound in BENCHMARK.json:
//
//	ok          B is not worse than A by more than the bound
//	regressed   it is
//	unresolved  either side's own spread (quartile distance over median, as
//	            the driver computes it) is wider than the bound, so the
//	            difference cannot be told from noise
//
// The failure count is compared exactly: more failed operations in B is a
// regression whatever the timings say. It reports whether anything regressed.
func compareSets(w io.Writer, bf benchmarkFile, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	if a.Env != b.Env {
		fmt.Fprintf(w, "note: environments differ: %+v vs %+v\n", a.Env, b.Env)
	}
	regressed := false
	fmt.Fprintf(w, "%-8s %-20s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "iqr A", "iqr B", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a.values(wl.name, m.Name), b.values(wl.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: missing from one set (%d vs %d untraced runs)", wl.name, m.Name, len(va), len(vb))
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			}
			regressed = regressed || verdict == "regressed"
			fmt.Fprintf(w, "%-8s %-20s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.name, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
		fa, fb := a.failed(wl.name), b.failed(wl.name)
		verdict := "ok"
		if fb > fa {
			verdict, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-8s %-20s %12d %12d %41s\n", wl.name, "failed", fa, fb, verdict)
	}
	return regressed, nil
}

// spread is the quartile distance as a share of the median; one value has
// none.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func readSet(path string) (setFile, error) {
	var s setFile
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// values returns the metric's value in every untraced run of the workload.
func (s setFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, v.Value)
		}
	}
	return out
}

func (s setFile) failed(workload string) int64 {
	var n int64
	for _, r := range s.Runs {
		if r.Workload == workload {
			n += r.Result.Failed
		}
	}
	return n
}

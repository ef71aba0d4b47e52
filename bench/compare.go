package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// A result set is what -out writes: a JSON array of untraced results, several
// runs per workload.
func readSet(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []result
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// quartiles returns Q1, the median and Q3 by the exclusive method, as
// Python's statistics.quantiles(v, n=4) and statistics.median do.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return q(0.25), q(0.5), q(0.75)
}

// spread is the distance between the first and third quartile as a share of
// the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, the ratio b/a with a as its base, the bound and a verdict. It
// reports false when any metric is worse or more checks failed in b.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	type cell struct{ a, b []float64 }
	values := make(map[string]map[string]*cell)
	var failA, failB, attA, attB int64
	collect := func(set []result, pick func(*cell) *[]float64, fail, att *int64) {
		for _, r := range set {
			if r.Traced {
				continue
			}
			*fail += r.Failed
			*att += r.Attempted
			if values[r.Workload] == nil {
				values[r.Workload] = make(map[string]*cell)
			}
			for name, m := range r.Metrics {
				c := values[r.Workload][name]
				if c == nil {
					c = &cell{}
					values[r.Workload][name] = c
				}
				p := pick(c)
				*p = append(*p, m.Value)
			}
		}
	}
	collect(a, func(c *cell) *[]float64 { return &c.a }, &failA, &attA)
	collect(b, func(c *cell) *[]float64 { return &c.b }, &failB, &attB)

	ok := true
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %18s %7s %8s  %s\n",
		"workload", "metric", "a", "b", "ratio b/a (base a)", "bound", "spread", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			c := values[wl.name][d.Name]
			if c == nil || len(c.a) == 0 || len(c.b) == 0 {
				continue
			}
			_, ma, _ := quartiles(c.a)
			_, mb, _ := quartiles(c.b)
			ratio := mb / ma
			// worse is by how much b lost against a, in the metric's direction.
			worse := ratio - 1
			if d.Better == "higher" {
				worse = 1 - ratio
			}
			sp := max(spread(c.a), spread(c.b))
			verdict := "same"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
				ok = false
			case worse < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-16s %-16s %12.4f %12.4f %18.4f %7.2f %8.3f  %s\n",
				wl.name, d.Name, ma, mb, ratio, d.Bound, sp, verdict)
		}
	}
	ra, rb := failRatio(failA, attA), failRatio(failB, attB)
	fmt.Fprintf(w, "fail_ratio       a %.6f (%d of %d)   b %.6f (%d of %d)\n", ra, failA, attA, rb, failB, attB)
	if rb > ra {
		ok = false
	}
	return ok, nil
}

func failRatio(failed, attempted int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

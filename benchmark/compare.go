package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// runCompare implements the paired comparison of two commits: the -out
// files of the parent's runs, "--", then the change's runs, paired in
// order (run them alternately). For every workload and metric it prints
// each side's median and quartiles, the share of pairs the change won,
// and a verdict:
//
//   - improved: the change won at least 9 of 10 pairs and its median beats
//     the parent's by more than the parent's quartile distance;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound (per-layer metrics, which have no bound: by the
//     improved rule mirrored);
//   - unresolved: neither, and either side's quartile distance is wider
//     than the bound, unless every change run beats every parent run;
//   - unchanged: otherwise.
func runCompare(args []string, w io.Writer) error {
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		return fmt.Errorf("usage: compare PARENT.json... -- CHANGE.json... (from -out)")
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	parent, err := loadRuns(args[:sep])
	if err != nil {
		return err
	}
	change, err := loadRuns(args[sep+1:])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-11s %-34s %12s %12s %12s %12s %12s %12s %6s  %s\n",
		"workload", "metric", "parent_q1", "parent_med", "parent_q3", "change_q1", "change_med", "change_q3", "wins", "verdict")
	for _, key := range sortedKeys(parent) {
		a, b := parent[key], change[key]
		if len(b) == 0 {
			continue
		}
		wl, metric := splitKey(key)
		def, ok := sp.lookup(metric)
		if !ok {
			return fmt.Errorf("metric %s is missing from BENCHMARK.json", metric)
		}
		qa, qb := quartiles(a), quartiles(b)
		wins, verdict := judge(def, a, b, qa, qb)
		fmt.Fprintf(w, "%-11s %-34s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %6.2f  %s\n",
			wl, metric, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], wins, verdict)
	}
	return nil
}

// splitKey splits a loadRuns key into workload and metric.
func splitKey(k string) (workload, metric string) {
	w, m, _ := strings.Cut(k, "\x00")
	return w, m
}

// loadRuns reads -out files, in order, into one value list per workload
// and metric.
func loadRuns(paths []string) (map[string][]float64, error) {
	vals := map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var of outFile
		if err := json.Unmarshal(b, &of); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range of.Reports {
			for name, m := range r.Metrics {
				k := r.Workload + "\x00" + name
				vals[k] = append(vals[k], m.Value)
			}
		}
	}
	return vals, nil
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (its default exclusive method).
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// judge applies the comparison rule to one metric's paired runs and
// returns the change's win share and the verdict.
func judge(def specMetric, a, b []float64, qa, qb [3]float64) (float64, string) {
	sign := 1.0 // positive when the change is better
	if def.Better == "lower" {
		sign = -1
	}
	pairs := min(len(a), len(b))
	won, lost := 0, 0
	for i := 0; i < pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			won++
		case d < 0:
			lost++
		}
	}
	winShare := float64(won) / float64(pairs)
	gain := sign * (qb[1] - qa[1])
	spreadA := qa[2] - qa[0]
	switch {
	case winShare >= 0.9 && gain > spreadA:
		return winShare, "improved"
	case def.Bound > 0 && -gain > def.Bound*math.Abs(qa[1]):
		return winShare, "worse"
	case def.Bound == 0 && float64(lost)/float64(pairs) >= 0.9 && -gain > spreadA:
		return winShare, "worse"
	}
	if def.Bound > 0 {
		wide := spreadA > def.Bound*math.Abs(qa[1]) || qb[2]-qb[0] > def.Bound*math.Abs(qb[1])
		if wide && !allBetter(sign, a, b) {
			return winShare, "unresolved"
		}
	}
	return winShare, "unchanged"
}

// allBetter reports whether every change run beats every parent run.
func allBetter(sign float64, a, b []float64) bool {
	worstB := slices.Min(b)
	bestA := slices.Max(a)
	if sign < 0 {
		worstB, bestA = slices.Max(b), slices.Min(a)
	}
	return sign*(worstB-bestA) > 0
}

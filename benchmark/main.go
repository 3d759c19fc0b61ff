// Command benchmark measures the instruction selector end to end and layer
// by layer, over five seeded workloads from the in-process JIT loop to a
// routed two-replica fleet. Every output is checked against the dp engine.
//
//	bash benchmark/run.sh --workload jit-solo --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1 --out run.json          # every workload
//	bash benchmark/run.sh --trace 1 --spans spans.json     # per-layer run
//	bash benchmark/run.sh compare A1.json A2.json -- B1.json B2.json
//
// It prints "workload metric value unit" lines and, as its last line, one
// JSON object with the keys correct, attempted, failed and metrics. See
// README.md for the workloads, the metrics and how to compare two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]plainMetric `json:"metrics"`
}

type plainMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outFile is the -out document: every report of the run.
type outFile struct {
	Seed    uint64    `json:"seed"`
	Trace   bool      `json:"trace"`
	Reports []*report `json:"reports"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed for every drawn input")
	seconds := fs.Float64("seconds", 20, "timed load per workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	spansPath := fs.String("spans", "", "with -trace 1, write every span to this JSON file")
	outPath := fs.String("out", "", "write every report to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bad arguments: -workload %q -seconds %g -trace %d\n", *name, *seconds, *trace)
		return 2
	}
	tmp, err := os.MkdirTemp("", "isel-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer os.RemoveAll(tmp)
	c, err := buildCorpus()
	if err != nil {
		fmt.Fprintln(os.Stderr, "corpus:", err)
		return 2
	}
	var spans *spanWriter
	if *trace == 1 && *spansPath != "" {
		if spans, err = createSpans(*spansPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	final := result{Correct: true, Metrics: map[string]plainMetric{}}
	out := outFile{Seed: *seed, Trace: *trace == 1}
	status := 0
	for _, w := range chosen {
		e := &env{c: c, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), tmp: tmp}
		if *trace == 1 {
			e.tr = newTracer()
		}
		rep, err := runWorkload(w, e, os.Stdout)
		if spans != nil {
			spans.write(w.name, e.tr)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			status = 1
			if rep == nil {
				continue
			}
		}
		for _, n := range rep.notes {
			fmt.Printf("%s # %s\n", rep.Workload, n)
		}
		for _, k := range sortedKeys(rep.Metrics) {
			m := rep.Metrics[k]
			line := fmt.Sprintf("%s %s %.6g %s", rep.Workload, k, m.Value, m.Unit)
			if m.N > 0 {
				line += fmt.Sprintf(" n=%d", m.N)
			}
			fmt.Println(line)
			key := k
			if len(chosen) > 1 {
				key = rep.Workload + "/" + k
			}
			final.Metrics[key] = plainMetric{m.Value, m.Unit}
		}
		if err := sp.check(rep); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			status = 1
		}
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		out.Reports = append(out.Reports, rep)
	}
	if spans != nil {
		if err := spans.close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			status = 1
		}
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			status = 1
		}
	}
	final.Correct = final.Failed == 0 && final.Attempted > 0
	if !final.Correct {
		status = 1
	}
	line, _ := json.Marshal(final)
	fmt.Println(string(line))
	return status
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

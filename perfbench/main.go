// Command perfbench is the repository's end-to-end benchmark. It drives
// the STA layers through their public functions on one of three
// workloads, checks every result, and prints one JSON line of metrics:
// the end-to-end metrics, or with -trace 1 the per-layer metrics of a
// separately traced run. README.md describes the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload query --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: flow or query")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measuring time of the run in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload flow|query, -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	if err := runWorkload(os.Stdout, *workload, run, *seed, *seconds, *trace == 1, ".bench_build"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runWorkload(w io.Writer, name string, run func(*bench), seed int64, seconds float64, traced bool, outDir string) error {
	h, err := json.Marshal(host())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", h)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", name, seed, seconds, traced)

	b := newBench(seed, seconds, traced)
	t0 := time.Now()
	b.calibrate(true)
	run(b)
	b.calibrate(true)
	fmt.Fprintf(w, "run wall %.3fs: %d set-ups, %d operations, %d library builds, %d queries, %d checked paths\n",
		time.Since(t0).Seconds(), len(b.setups), len(b.ops), len(b.chars), len(b.queries), len(b.pathErrs))

	defs, values := endToEnd, b.endToEndValues()
	if traced {
		defs, values = perLayer, b.perLayerValues()
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := b.rec.writeSpans(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d spans to %s\n", len(b.rec.spans), path)
		b.rec.writeSelfTable(w)
		fmt.Fprintf(w, "%d operations run traced and untraced: %.3f CPU s traced, %.3f CPU s untraced\n", b.pairs, b.tracedS, b.plainS)
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := finite(values[d.Name])
		if !ok && !traced {
			b.failed++
			b.failures = append(b.failures, d.Name+": no samples")
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	res.Failed = b.failed
	res.Correct = b.failed == 0
	for _, f := range b.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	if !traced {
		q := cpuOf(b.queries)
		fmt.Fprintf(w, "queries: %d samples, %d beyond p90\n", len(q), beyond(q, percentile(q, 90)))
		fmt.Fprintf(w, "reference: %d passes, median %.3f ms, host speed factor %.4f; per operation %.4f CPU s, %.4f wall s\n",
			len(b.refs), 1e3*median(b.refs), b.speed(), mean(cpuOf(b.ops)), mean(wallOf(b.ops)))
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-26s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

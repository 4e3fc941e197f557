// Command benchmark is the repository's performance benchmark: four
// seeded workloads over the top-k engine, each measured end to end and,
// in a separate traced run, broken down by layer.
//
//	bash benchmark/run.sh --workload central-bpa2 --seed 1 --seconds 25 --trace 0
//
// prints one line per metric, workload<TAB>metric<TAB>value<TAB>unit,
// and then a JSON object with the correctness verdict and the metrics.
// Without --workload it runs every workload, each in its own child
// process, and prints their metric lines. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "aggregate" {
		os.Exit(aggregateMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 25, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spans := fs.String("spans", "", "traced runs: write the first 16 traced operations' spans to this JSON file")
	workdir := fs.String("workdir", ".bench_build/work", "directory for generated input files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace takes 0 or 1")
		return 2
	}
	if *name == "" {
		return runAll(args, stdout)
	}
	e, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, e.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rep, err := run(context.Background(), e.name, e.make(e.spec), e.rootLayer, runConfig{
		seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		dir: dir, setups: 3, block: time.Second, spans: *spans,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if rep.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed; last: %v\n", e.name, rep.failed, rep.attempted, rep.firstErr)
	}
	printReport(stdout, rep)
	return 0
}

// printReport writes the metric lines and, last, the JSON result.
func printReport(w io.Writer, rep *report) {
	line := func(m metric) {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s", rep.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		if m.note != "" {
			fmt.Fprintf(w, "\t%s", m.note)
		}
		fmt.Fprintln(w)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		line(m)
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // only a failed run has these; its verdict is already false
		}
		ms[m.name] = value{Value: v, Unit: m.unit}
	}
	for _, m := range rep.extra {
		line(m)
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, ms}) // plain structs of finite floats: cannot fail
	fmt.Fprintln(w, string(b))
}

// runAll runs every workload in its own child process, so that set-up
// time and peak memory are per workload, and forwards their metric
// lines. It fails if any workload fails or reports a wrong answer.
func runAll(args []string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	status := 0
	for _, e := range workloads() {
		cmd := exec.Command(self, append(append([]string(nil), args...), "--workload", e.name)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		correct := false
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			l := sc.Text()
			if strings.HasPrefix(l, "{") {
				var res struct {
					Correct bool `json:"correct"`
				}
				correct = json.Unmarshal([]byte(l), &res) == nil && res.Correct
				continue
			}
			fmt.Fprintln(stdout, l)
		}
		if err := cmd.Wait(); err != nil || !correct {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s failed (exit: %v, correct: %v)\n", e.name, err, correct)
			status = 1
		}
	}
	return status
}

package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// aggregateMain summarizes a set of runs: it reads the metric lines of
// every file named (one run's output each) and prints, per workload and
// metric, the median, the quartiles and the spread (Q3-Q1)/median. A run
// whose calibration kernel is more than 10% off its workload's median is
// flagged: the host ran at another speed. Flagged runs are kept in every
// statistic and listed, never dropped.
//
//	topk-benchmark aggregate [--json] run1.txt run2.txt ...
func aggregateMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("aggregate", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the summary as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "aggregate: name the run output files")
		return 2
	}
	set := newRunSet()
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggregate:", err)
			return 1
		}
		err = set.read(path, f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggregate:", err)
			return 1
		}
	}
	sum := set.summarize()
	if *asJSON {
		b, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggregate:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	for _, wl := range sortedKeys(sum.Workloads) {
		for _, m := range sortedKeys(sum.Workloads[wl]) {
			s := sum.Workloads[wl][m]
			fmt.Fprintf(stdout, "%s\t%s\tn=%d\tmedian=%.6g\tq1=%.6g\tq3=%.6g\tspread=%.4f\t%s\n",
				wl, m, s.N, s.Median, s.Q1, s.Q3, s.Spread, s.Unit)
		}
	}
	for _, f := range sum.Flagged {
		fmt.Fprintf(stdout, "flagged\t%s\t%s\tcalib_ms=%.4g\tset_median=%.4g\n", f.Workload, f.Run, f.CalibMs, f.SetMedian)
	}
	return 0
}

type sample struct {
	run   string
	value float64
}

// runSet collects metric values per workload and metric, in run order.
type runSet struct {
	values map[string]map[string][]sample
	units  map[string]string
}

func newRunSet() *runSet {
	return &runSet{values: map[string]map[string][]sample{}, units: map[string]string{}}
}

// read parses one run's output; lines that are not metric lines (the
// JSON result, diagnostics) are skipped.
func (s *runSet) read(run string, r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) < 4 || strings.HasPrefix(f[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		if s.values[f[0]] == nil {
			s.values[f[0]] = map[string][]sample{}
		}
		s.values[f[0]][f[1]] = append(s.values[f[0]][f[1]], sample{run: run, value: v})
		s.units[f[1]] = f[3]
	}
	return sc.Err()
}

type stat struct {
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

type flagged struct {
	Workload  string  `json:"workload"`
	Run       string  `json:"run"`
	CalibMs   float64 `json:"calib_ms"`
	SetMedian float64 `json:"set_median_ms"`
}

type summary struct {
	Workloads map[string]map[string]stat `json:"workloads"`
	Flagged   []flagged                  `json:"flagged_runs"`
}

// calibTolerance is how far a run's calibration may sit from its set's
// median before the run is flagged.
const calibTolerance = 0.10

func (s *runSet) summarize() summary {
	out := summary{Workloads: map[string]map[string]stat{}, Flagged: []flagged{}}
	for wl, metrics := range s.values {
		out.Workloads[wl] = map[string]stat{}
		for m, samples := range metrics {
			vs := make([]float64, len(samples))
			for i, x := range samples {
				vs[i] = x.value
			}
			q1, q2, q3 := quartiles(vs)
			st := stat{N: len(vs), Median: q2, Q1: q1, Q3: q3, Unit: s.units[m], Values: vs}
			if q2 != 0 && !math.IsNaN(q2) {
				st.Spread = (q3 - q1) / math.Abs(q2)
			}
			out.Workloads[wl][m] = st
		}
		calib := metrics["machine.calib_ms"]
		vs := make([]float64, len(calib))
		for i, x := range calib {
			vs[i] = x.value
		}
		med := median(vs)
		for _, x := range calib {
			if med > 0 && math.Abs(x.value/med-1) > calibTolerance {
				out.Flagged = append(out.Flagged, flagged{Workload: wl, Run: x.run, CalibMs: x.value, SetMedian: med})
			}
		}
	}
	sort.Slice(out.Flagged, func(i, j int) bool {
		if out.Flagged[i].Workload != out.Flagged[j].Workload {
			return out.Flagged[i].Workload < out.Flagged[j].Workload
		}
		return out.Flagged[i].Run < out.Flagged[j].Run
	})
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

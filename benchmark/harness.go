package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// spec sizes a workload. The defaults are in workloads(); tests shrink
// them.
type spec struct {
	N, M, K   int
	Replicas  int // owners per list (cluster workloads)
	Callers   int // concurrent closed-loop callers
	Warmup    int // operations run by every setup, before the clock starts
	Pool      int // distinct queries in the mix, cycled through in order
	Datasets  int // cluster: independent databases the mix spreads over
	CacheDiv  int // stripe cache budget = list bytes / CacheDiv
	Batches   int // live: length of the seeded update feed
	BatchSize int // live: updates per owner per batch
}

// workload makes its inputs from a seed and builds ready instances of
// the program over them.
type workload interface {
	// generate makes the seeded inputs; untimed.
	generate(seed int64, dir string) error
	// setup builds the program over the inputs and runs the warm-up.
	// Timed, and repeated: every call returns an independent instance
	// in the same state. tr is nil for an untraced run.
	setup(ctx context.Context, tr *tracer) (instance, error)
}

// instance is a set-up program under load.
type instance interface {
	callers() int
	// op runs caller's seq-th operation (seq counts from 0 per caller).
	op(ctx context.Context, caller, seq int) outcome
	// accessesPerQuery is the mean list accesses per query of the run.
	accessesPerQuery(recs []opRecord) float64
	// counters snapshots the program's cumulative tallies.
	counters() counters
	// finish runs the end-of-run oracle checks, one error (or nil) per
	// checked operation.
	finish(ctx context.Context) []error
	close()
}

type opKind uint8

const (
	opQuery opKind = iota
	opUpdate
)

// outcome is what one operation reports to the harness. err covers both
// a failed call and an answer that did not match its oracle.
type outcome struct {
	kind      opKind
	err       error
	accesses  int64
	exchanges int64
	rounds    int64
	crossing  bool // live: the update re-evaluated the standing query
	done      bool // the caller has no more operations; nothing ran
}

type opRecord struct {
	start, end int64
	kind       opKind
	err        error
	traced     bool
	crossing   bool
	accesses   int64
	exchanges  int64
	rounds     int64
}

func (r opRecord) ms() float64 { return float64(r.end-r.start) / 1e6 }

func (r opRecord) failed() bool { return r.err != nil }

// counters are the program's cumulative tallies at the seams the
// benchmark reads: owner shedding, stripe cache traffic, and the live
// coordinator's Accounting.
type counters struct {
	shed, hits, misses, evictions      int64
	batches, suppressed, notifications int64
	reevals, reevalMsgs, filterMsgs    int64
}

func (a counters) sub(b counters) counters {
	return counters{
		shed: a.shed - b.shed, hits: a.hits - b.hits, misses: a.misses - b.misses, evictions: a.evictions - b.evictions,
		batches: a.batches - b.batches, suppressed: a.suppressed - b.suppressed, notifications: a.notifications - b.notifications,
		reevals: a.reevals - b.reevals, reevalMsgs: a.reevalMsgs - b.reevalMsgs, filterMsgs: a.filterMsgs - b.filterMsgs,
	}
}

func (a counters) add(b counters) counters {
	return a.sub(counters{}.sub(b))
}

// runConfig is one benchmark run.
type runConfig struct {
	seed    int64
	dur     time.Duration
	trace   bool
	dir     string // scratch directory for generated files
	setups  int    // set-ups per run; setup_s is their median
	block   time.Duration
	spans   string // traced runs: write the first operations' spans here
	minimal bool   // tests: skip the calibration kernel
	inject  delays // tests: the attribution self-test's delays
}

// phase is the measured part of a run.
type phase struct {
	recs    []opRecord
	windows []window
	blocks  []block
	rt      rtSample // runtime deltas over the untraced blocks
	ctr     counters // counter deltas over the traced blocks
	ctrAll  counters // counter deltas over the whole phase
	// peakRSSMB is the peak resident set from the first set-up to the
	// end of the phase.
	peakRSSMB float64
}

type block struct {
	start, end int64
	traced     bool
}

// measure drives the instance's callers in a closed loop for dur. An
// untraced run is one block. A traced run alternates untraced and
// traced blocks of rc.block, with a barrier between blocks so that no
// operation straddles a switch; the untraced blocks give the tracing
// overhead and the runtime numbers, the traced ones the layer table.
func measure(ctx context.Context, inst instance, tr *tracer, rc runConfig) *phase {
	ph := &phase{}
	n := inst.callers()
	seqs := make([]int, n)
	done := make([]bool, n)
	recs := make([][]opRecord, n)

	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	type tick struct{ t, cpu int64 }
	var ticks []tick
	go func() {
		defer samplerWG.Done()
		tk := time.NewTicker(time.Second)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				ticks = append(ticks, tick{nanotime(), cpuNs()})
			}
		}
	}()

	start := nanotime()
	deadline := start + int64(rc.dur)
	startCPU := cpuNs()
	ctr0 := inst.counters()
	traced := false
	for now := nanotime(); now < deadline; now = nanotime() {
		end := deadline
		if tr != nil {
			end = min(deadline, now+int64(rc.block))
			tr.on.Store(traced)
		}
		rtBefore, ctrBefore := readRuntime(), inst.counters()
		var wg sync.WaitGroup
		for c := range n {
			if done[c] {
				continue
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for nanotime() < end {
					rec, ok := runOp(ctx, inst, tr, traced, c, seqs[c])
					if !ok {
						done[c] = true
						return
					}
					seqs[c]++
					recs[c] = append(recs[c], rec)
				}
			}(c)
		}
		wg.Wait()
		blockEnd := nanotime()
		ph.blocks = append(ph.blocks, block{start: now, end: blockEnd, traced: traced})
		if tr != nil {
			tr.on.Store(false)
		}
		if traced {
			tr.finishBlock()
			ph.ctr = ph.ctr.add(inst.counters().sub(ctrBefore))
		} else {
			ph.rt = ph.rt.add(readRuntime().sub(rtBefore))
		}
		traced = tr != nil && !traced
		if allDone(done) {
			break
		}
	}
	close(stop)
	samplerWG.Wait()
	endT := nanotime()
	ticks = append(ticks, tick{endT, cpuNs()})
	prev := tick{start, startCPU}
	for _, t := range ticks {
		if t.t > prev.t {
			ph.windows = append(ph.windows, window{start: prev.t, end: t.t, cpu: t.cpu - prev.cpu})
		}
		prev = t
	}
	ph.ctrAll = inst.counters().sub(ctr0)
	for _, r := range recs {
		ph.recs = append(ph.recs, r...)
	}
	return ph
}

func allDone(done []bool) bool {
	for _, d := range done {
		if !d {
			return false
		}
	}
	return true
}

func runOp(ctx context.Context, inst instance, tr *tracer, traced bool, c, seq int) (opRecord, bool) {
	var op *opTrace
	if traced {
		ctx, op = tr.beginOp(ctx, c)
	}
	t0 := nanotime()
	out := inst.op(ctx, c, seq)
	t1 := nanotime()
	if out.done {
		if op != nil {
			tr.ops.Delete(op.id)
		}
		return opRecord{}, false
	}
	if op != nil {
		tr.endOp(op)
	}
	return opRecord{
		start: t0, end: t1, kind: out.kind, err: out.err, traced: traced,
		crossing: out.crossing, accesses: out.accesses, exchanges: out.exchanges, rounds: out.rounds,
	}, true
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string // printed beside the value, e.g. sample counts
}

// report is a finished run.
type report struct {
	workload          string
	correct           bool
	attempted, failed int64
	metrics           []metric // the ones the JSON result carries
	extra             []metric // printed only as text lines
	firstErr          error
}

// run performs one full run of a workload: generate, set up rc.setups
// times, measure, check, and assemble the metrics.
func run(ctx context.Context, name string, w workload, rootLayer string, rc runConfig) (*report, error) {
	calib0 := 0.0
	if !rc.minimal {
		calib0 = calibrate()
	}
	if err := w.generate(rc.seed, rc.dir); err != nil {
		return nil, fmt.Errorf("%s: generate inputs: %w", name, err)
	}
	// The peak resident set reported is the program's: the calibration
	// kernel's and the generator's garbage goes back to the OS and the
	// kernel's high-water mark is reset before the first set-up.
	debug.FreeOSMemory()
	resetPeakRSS()
	var tr *tracer
	if rc.trace {
		tr = newTracer(rootLayer)
		if rc.spans != "" {
			tr.keep = spansKept
		}
		tr.inject = rc.inject
	}
	var inst instance
	setupS := make([]float64, 0, rc.setups)
	for range max(rc.setups, 1) {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		in, err := w.setup(ctx, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.close()
	runtime.GC()

	ph := measure(ctx, inst, tr, rc)
	ph.peakRSSMB = peakRSSMB()
	checks := inst.finish(ctx)
	calib1 := 0.0
	if !rc.minimal {
		calib1 = calibrate()
	}

	rep := &report{workload: name}
	rep.attempted = int64(len(ph.recs) + len(checks))
	errs := checks
	for _, r := range ph.recs {
		errs = append(errs, r.err)
	}
	for _, err := range errs {
		if err != nil {
			rep.failed++
			if rep.firstErr == nil {
				rep.firstErr = err
			}
		}
	}
	rep.correct = rep.failed == 0 && rep.attempted > 0

	if tr != nil {
		rep.metrics = layerMetrics(tr, ph)
		if rc.spans != "" {
			if err := tr.writeSpans(rc.spans, name); err != nil {
				return nil, err
			}
		}
	} else {
		rep.metrics = endToEnd(setupS, inst, ph)
	}
	calib := (calib0 + calib1) / 2
	drift := 0.0
	if calib0 > 0 {
		drift = calib1/calib0 - 1
	}
	if tr != nil {
		rep.metrics = append(rep.metrics,
			metric{name: "machine.calib_ms", unit: "ms", value: calib},
			metric{name: "machine.calib_drift", unit: "ratio", value: drift})
	} else {
		rep.extra = append(rep.extra,
			metric{name: "machine.calib_ms", unit: "ms", value: calib},
			metric{name: "machine.calib_drift", unit: "ratio", value: drift})
	}
	return rep, nil
}

// latencies returns the latencies in ms of one kind of operation in the
// chosen blocks; a failed operation counts as infinitely slow, so it
// misses any latency limit.
func latencies(recs []opRecord, kind opKind, keep func(opRecord) bool) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.kind != kind || !keep(r) {
			continue
		}
		if r.failed() {
			xs = append(xs, math.Inf(1))
			continue
		}
		xs = append(xs, r.ms())
	}
	return xs
}

func all(opRecord) bool { return true }

// endToEnd assembles the metrics of an untraced run.
func endToEnd(setupS []float64, inst instance, ph *phase) []metric {
	q := latencies(ph.recs, opQuery, all)
	p50, _ := percentile(q, 0.50)
	p90, beyond := percentile(q, 0.90)
	perSec, cpuPerOp := windowRates(ph.windows, ph.recs, opQuery)
	ops := float64(len(ph.recs))
	return []metric{
		{name: "setup_s", unit: "s", value: median(setupS), note: fmt.Sprintf("median of %d", len(setupS))},
		{name: "query_p50_ms", unit: "ms", value: p50, note: fmt.Sprintf("n=%d", len(q))},
		{name: "query_p90_ms", unit: "ms", value: p90, note: fmt.Sprintf("n=%d beyond=%d", len(q), beyond)},
		{name: "queries_per_s", unit: "1/s", value: median(perSec), note: fmt.Sprintf("median of %d windows", len(perSec))},
		{name: "accesses_per_query", unit: "count", value: inst.accessesPerQuery(ph.recs)},
		{name: "allocs_per_op", unit: "count", value: ph.rt.allocObjs / ops, note: fmt.Sprintf("ops=%d", len(ph.recs))},
		{name: "cpu_ms_per_op", unit: "ms", value: median(cpuPerOp), note: fmt.Sprintf("median of %d windows", len(cpuPerOp))},
		{name: "max_rss_mb", unit: "MB", value: ph.peakRSSMB},
	}
}

// layerMetrics assembles the per-layer table of a traced run. Every
// metric is printed for every workload; a layer the workload does not
// exercise reads 0.
func layerMetrics(tr *tracer, ph *phase) []metric {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ops := float64(max(tr.finished, 1))
	ms := func(ns float64) float64 { return ns / ops / 1e6 }
	per := func(n int64) float64 { return float64(n) / ops }
	// Reader time is carved out of the spans the reads ran in: the
	// operation itself centrally, the owner's rpc handlers in a cluster.
	// The sampled estimate is a sum of durations, so it moves the same
	// fraction of those spans' attributed (shared) time as it is of
	// their raw durations; parallel handlers thus give up only their
	// share.
	listCalls, listRaw := tr.readerTotals(false)
	stripeCalls, stripeRaw := tr.readerTotals(true)
	self := tr.self // a copy: reader time is carved out of it
	total := func(l layer) float64 {
		s := 0.0
		for _, v := range self[l] {
			s += v
		}
		return s
	}
	var listNs, stripeNs float64
	carve := func(l layer, c class) {
		if tr.raw[l][c] <= 0 || listRaw+stripeRaw <= 0 {
			return
		}
		moved := self[l][c] * min((listRaw+stripeRaw)/tr.raw[l][c], 1)
		listNs = moved * listRaw / (listRaw + stripeRaw)
		stripeNs = moved - listNs
		self[l][c] -= moved
	}
	var coreNs, distNs, liveNs float64
	switch tr.rootLayer {
	case "core":
		carve(layerOp, classNone)
		coreNs = total(layerOp)
	case "dist":
		carve(layerOwner, classRPC)
		distNs = total(layerOp)
	case "live":
		liveNs = total(layerOp)
	}
	controlNs := 0.0
	for c := range numClasses {
		if c.control() {
			controlNs += self[layerWire][c] + self[layerOwner][c]
		}
	}
	meanOp := tr.opNs / ops

	tracedQ, untracedQ := latencies(ph.recs, opQuery, func(r opRecord) bool { return r.traced }),
		latencies(ph.recs, opQuery, func(r opRecord) bool { return !r.traced })
	var rounds, exchanges int64
	untracedOps := 0
	for _, r := range ph.recs {
		if r.traced {
			rounds += r.rounds
			exchanges += r.exchanges
		} else {
			untracedOps++
		}
	}
	hitRatio := 0.0
	if h, m := ph.ctr.hits, ph.ctr.misses; h+m > 0 {
		hitRatio = float64(h) / float64(h+m)
	}
	gcFrac := 0.0
	if cpu := ph.rt.gcCPU + ph.rt.userCPU; cpu > 0 {
		gcFrac = ph.rt.gcCPU / cpu
	}
	uOps := float64(max(untracedOps, 1))

	out := []metric{
		{name: "core.self_ms_per_query", unit: "ms", value: ms(coreNs)},
		{name: "list.reads_per_query", unit: "count", value: per(listCalls)},
		{name: "list.read_ms_per_query", unit: "ms", value: ms(listNs)},
		{name: "store.stripe.reads_per_query", unit: "count", value: per(stripeCalls)},
		{name: "store.stripe.read_ms_per_query", unit: "ms", value: ms(stripeNs)},
		{name: "store.stripe.hit_ratio", unit: "ratio", value: hitRatio},
		{name: "store.stripe.misses_per_query", unit: "count", value: per(ph.ctr.misses)},
		{name: "store.stripe.evictions_per_query", unit: "count", value: per(ph.ctr.evictions)},
		{name: "dist.self_ms_per_query", unit: "ms", value: ms(distNs)},
		{name: "dist.rounds_per_query", unit: "count", value: per(rounds)},
		{name: "dist.exchanges_per_query", unit: "count", value: per(exchanges)},
		{name: "dist.session_calls_per_query", unit: "count", value: per(tr.sessionCalls.Load())},
		{name: "transport.client.self_ms_per_query", unit: "ms", value: ms(total(layerClient))},
		{name: "transport.client.control_ms_per_query", unit: "ms", value: ms(controlNs)},
		{name: "transport.wire.ms_per_op", unit: "ms", value: ms(total(layerWire))},
		{name: "transport.wire.req_bytes_per_op", unit: "bytes", value: per(tr.reqBytes.Load())},
		{name: "transport.wire.resp_bytes_per_op", unit: "bytes", value: per(tr.respBytes.Load())},
		{name: "transport.wire.new_conns_per_op", unit: "count", value: per(tr.newConns.Load())},
	}
	for c := classRPC; c < numClasses; c++ {
		out = append(out, metric{name: "transport.wire.requests_per_op." + classNames[c], unit: "count", value: per(tr.requests[c].Load())})
	}
	for c := classRPC; c < numClasses; c++ {
		out = append(out, metric{name: "transport.owner.self_ms_per_op." + classNames[c], unit: "ms", value: ms(self[layerOwner][c])})
	}
	out = append(out,
		metric{name: "transport.owner.shed_per_op", unit: "count", value: per(ph.ctr.shed)},
		metric{name: "transport.owner.max_inflight", unit: "count", value: float64(tr.maxInflight.Load())},
		metric{name: "live.self_ms_per_op", unit: "ms", value: ms(liveNs)},
	)
	out = append(out, liveMetrics(ph)...)
	out = append(out,
		metric{name: "runtime.gc_cpu_frac", unit: "ratio", value: gcFrac},
		metric{name: "runtime.gc_cycles_per_op", unit: "count", value: ph.rt.gcCycles / uOps},
		metric{name: "runtime.alloc_bytes_per_op", unit: "bytes", value: ph.rt.allocBytes / uOps},
		metric{name: "trace.overhead_frac", unit: "ratio", value: ratio(median(tracedQ), median(untracedQ))},
		metric{name: "trace.mean_op_ms", unit: "ms", value: meanOp / 1e6},
		metric{name: "trace.unlinked_per_op", unit: "count", value: per(tr.unlinked)},
	)
	return out
}

// liveMetrics are the live plane's numbers: the coordinator's
// Accounting over the whole phase (counts do not depend on tracing) and
// update timings from the untraced blocks.
func liveMetrics(ph *phase) []metric {
	c := ph.ctrAll
	batches := float64(max(c.batches, 1))
	suppressed := 0.0
	if d := c.suppressed + c.notifications; d > 0 {
		suppressed = float64(c.suppressed) / float64(d)
	}
	untraced := func(r opRecord) bool { return !r.traced }
	upd := latencies(ph.recs, opUpdate, untraced)
	p50, _ := percentile(upd, 0.50)
	p90, _ := percentile(upd, 0.90)
	supp := latencies(ph.recs, opUpdate, func(r opRecord) bool { return !r.traced && !r.crossing })
	cross := latencies(ph.recs, opUpdate, func(r opRecord) bool { return !r.traced && r.crossing })
	var untracedNs int64
	for _, b := range ph.blocks {
		if !b.traced {
			untracedNs += b.end - b.start
		}
	}
	perSec := 0.0
	if untracedNs > 0 {
		perSec = float64(len(upd)) / (float64(untracedNs) / 1e9)
	}
	return []metric{
		{name: "live.suppressed_frac", unit: "ratio", value: suppressed},
		{name: "live.reevals_per_update", unit: "count", value: float64(c.reevals) / batches},
		{name: "live.ctl_msgs_per_update", unit: "count", value: float64(c.reevalMsgs+c.filterMsgs) / batches},
		{name: "live.apply_ms_suppressed_p50", unit: "ms", value: zeroNaN(median(supp))},
		{name: "live.apply_ms_crossing_p50", unit: "ms", value: zeroNaN(median(cross))},
		{name: "live.update_p50_ms", unit: "ms", value: zeroNaN(p50)},
		{name: "live.update_p90_ms", unit: "ms", value: zeroNaN(p90)},
		{name: "live.updates_per_s", unit: "1/s", value: perSec},
	}
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors every span timestamp on the monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// layer is the bucket a span's self time is attributed to. Reader time
// (list, store.stripe) is not a span layer: reader calls are counted
// exactly and timed on a sample, then moved out of the layer that made
// them (the operation itself centrally, the owner handler in a cluster).
type layer uint8

const (
	layerOp     layer = iota // the operation's own code: core, dist or live
	layerClient              // inside a transport.Transport/Session call
	layerWire                // inside one HTTP round trip
	layerOwner               // inside one owner handler invocation
	numLayers
)

// class is the kind of HTTP request a wire or owner span carries.
type class uint8

const (
	classNone class = iota
	classRPC
	classSync
	classSession
	classStats
	classUpdate
	classFilter
	numClasses
)

var classNames = [numClasses]string{"", "rpc", "sync", "session", "stats", "update", "filter"}

// control reports whether a request class is control-plane traffic:
// everything but the /rpc data plane.
func (c class) control() bool { return c != classNone && c != classRPC && c != classUpdate }

// classOf maps an owner URL path onto its request class.
func classOf(path string) class {
	switch {
	case path == "/rpc/update":
		return classUpdate
	case strings.HasPrefix(path, "/rpc/"):
		return classRPC
	case path == "/session/sync" || path == "/session/state":
		return classSync
	case strings.HasPrefix(path, "/session/"):
		return classSession
	case path == "/stats":
		return classStats
	case strings.HasPrefix(path, "/filter/"):
		return classFilter
	}
	return classNone
}

// span is one timed interval of a traced operation. Spans are kept in
// a per-operation slice; Parent indexes into it, and the root (index 0)
// has Parent -1.
type span struct {
	Parent     int32
	Layer      layer
	Class      class
	Start, End int64
}

// opTrace is one traced operation: the trace ID and its spans.
type opTrace struct {
	id    uint64
	actor int
	mu    sync.Mutex
	spans []span
}

func (o *opTrace) begin(parent int32, l layer, c class) int32 {
	now := nanotime()
	o.mu.Lock()
	o.spans = append(o.spans, span{Parent: parent, Layer: l, Class: c, Start: now})
	i := int32(len(o.spans) - 1)
	o.mu.Unlock()
	return i
}

func (o *opTrace) end(i int32) {
	now := nanotime()
	o.mu.Lock()
	o.spans[i].End = now
	o.mu.Unlock()
}

// spanRef names one span of one operation; it travels in the context
// of every call the span causes.
type spanRef struct {
	op  *opTrace
	idx int32
}

type refKey struct{}

func withRef(ctx context.Context, op *opTrace, idx int32) context.Context {
	return context.WithValue(ctx, refKey{}, spanRef{op: op, idx: idx})
}

func refFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(refKey{}).(spanRef)
	return r, ok
}

// readerStat tallies the calls of one wrapped list reader. Every call is
// counted; a pseudo-random 1 in 64 is timed, and the layer's time is the
// sampled time scaled to the call count. Another 1 in 64 times an empty
// region instead, and that mean is taken off every sample: the cost of
// the clock reads themselves, measured in the same cache and scheduling
// state as the reads, which a calibration loop would understate.
//
// A reader only one goroutine calls (the central workload's) counts with
// plain integers; one an owner's concurrent sessions share counts
// atomically. An uncontended atomic add costs about twice a RAM list
// read, so the plain path keeps tracing from doubling the central
// workload's query time.
type readerStat struct {
	stripe bool // store.stripe layer; list layer otherwise
	single bool

	calls, samples, sampled, nulls, nulled      int64 // single: plain tallies
	acalls, asamples, asampled, anulls, anulled atomic.Int64
}

// hit counts one call and reports whether to time it. The multiplicative
// hash spreads the samples so that no periodic access pattern of an
// algorithm aliases with the sampling stride.
func (s *readerStat) hit() bool {
	var n int64
	if s.single {
		s.calls++
		n = s.calls
	} else {
		n = s.acalls.Add(1)
	}
	h := (uint64(n) * 0x9E3779B97F4A7C15) >> 58
	if h == 1 {
		t0 := nanotime()
		d := nanotime() - t0
		if s.single {
			s.nulls++
			s.nulled += d
		} else {
			s.anulls.Add(1)
			s.anulled.Add(d)
		}
	}
	return h == 0
}

// record adds one timed call that started at t0.
func (s *readerStat) record(t0 int64) {
	d := nanotime() - t0
	if s.single {
		s.samples++
		s.sampled += d
		return
	}
	s.asamples.Add(1)
	s.asampled.Add(d)
}

// readerTotals sums the tallies of one layer's readers. Called once the
// measured phase is over, when no reader is being called.
func (t *tracer) readerTotals(stripe bool) (calls int64, ns float64) {
	var samples, sampled, nulls, nulled int64
	for _, s := range t.readers {
		if s.stripe != stripe {
			continue
		}
		calls += s.calls + s.acalls.Load()
		samples += s.samples + s.asamples.Load()
		sampled += s.sampled + s.asampled.Load()
		nulls += s.nulls + s.anulls.Load()
		nulled += s.nulled + s.anulled.Load()
	}
	if samples == 0 || nulls == 0 {
		return calls, 0
	}
	perCall := float64(sampled)/float64(samples) - float64(nulled)/float64(nulls)
	return calls, max(perCall, 0) * float64(calls)
}

// delays are fixed busy-wait delays the attribution self-test injects
// inside one wrapper at a time: per owner handler invocation of a traced
// request, per list read, per HTTP round trip. Zero in benchmark runs.
type delays struct {
	owner, read, wire time.Duration
}

// spin busy-waits for d: unlike a sleep it occupies the CPU for exactly
// d, in the span it is injected into.
func spin(d time.Duration) {
	for end := nanotime() + int64(d); nanotime() < end; {
	}
}

// looseSpan is an owner handler invocation that arrived without a link
// to the client span that caused it: the live workload's cluster client
// offers no RoundTripper seam. It is linked to an operation when its
// block ends, by the session it carries.
type looseSpan struct {
	sid, kind  string
	cls        class
	start, end int64
}

// tracer records the spans of traced operations and keeps exact
// counters at every wrapped seam. While on is false every wrapper
// passes straight through; the harness turns it on only between
// barriers, so no operation straddles a switch.
type tracer struct {
	on     atomic.Bool
	nextOp atomic.Uint64
	ops    sync.Map // trace ID -> *opTrace, while its block runs
	// closing maps a session ID to its in-flight Close span:
	// Session.Close takes no context, so its requests are linked by the
	// session ID in their body.
	closing sync.Map

	sessionCalls atomic.Int64
	requests     [numClasses]atomic.Int64
	reqBytes     atomic.Int64
	respBytes    atomic.Int64
	newConns     atomic.Int64
	maxInflight  atomic.Int64
	readers      []*readerStat // registered at set-up, before measuring

	// kindActor maps a request kind (the /rpc path suffix, or "filter")
	// to the actor whose operations send it, for linking loose spans.
	kindActor map[string]int
	rootLayer string
	keep      int // operations whose spans are kept for the spans file
	inject    delays

	mu       sync.Mutex
	done     []*opTrace
	loose    []looseSpan
	finished int64
	opNs     float64
	self     [numLayers][numClasses]float64 // attributed (shared) ns
	raw      [numLayers][numClasses]float64 // span durations, clipped to the root
	unlinked int64
	kept     []*opTrace
}

// spansKept is how many traced operations' spans --spans writes.
const spansKept = 16

func newTracer(rootLayer string) *tracer {
	return &tracer{rootLayer: rootLayer}
}

// beginOp opens an operation's root span and returns the context its
// calls must carry.
func (t *tracer) beginOp(ctx context.Context, actor int) (context.Context, *opTrace) {
	op := &opTrace{id: t.nextOp.Add(1), actor: actor, spans: make([]span, 1, 64)}
	op.spans[0] = span{Parent: -1, Layer: layerOp, Start: nanotime()}
	t.ops.Store(op.id, op)
	return withRef(ctx, op, 0), op
}

func (t *tracer) endOp(op *opTrace) {
	op.end(0)
	t.mu.Lock()
	t.done = append(t.done, op)
	t.mu.Unlock()
}

func (t *tracer) lookup(id uint64) (*opTrace, bool) {
	v, ok := t.ops.Load(id)
	if !ok {
		return nil, false
	}
	return v.(*opTrace), true
}

func (t *tracer) addLoose(l looseSpan) {
	t.mu.Lock()
	t.loose = append(t.loose, l)
	t.mu.Unlock()
}

// finishBlock links the block's loose spans, attributes every finished
// operation's time to layers and releases the spans of all but the
// first keep operations. Called at a barrier: no operation is running.
func (t *tracer) finishBlock() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.linkLoose()
	for _, op := range t.done {
		t.ops.Delete(op.id)
		t.finished++
		t.opNs += float64(op.spans[0].End - op.spans[0].Start)
		attribute(op.spans, &t.self, &t.raw)
		if len(t.kept) < t.keep {
			t.kept = append(t.kept, op)
		}
	}
	t.done = t.done[:0]
	t.loose = t.loose[:0]
}

// linkLoose attaches each loose owner span to the operation that caused
// it: the actor is known from the request kind, or from another request
// of the same session, and an actor's operations never overlap, so the
// span belongs to the one whose interval holds its start.
func (t *tracer) linkLoose() {
	if len(t.loose) == 0 {
		return
	}
	sidActor := make(map[string]int)
	for _, l := range t.loose {
		if a, ok := t.kindActor[l.kind]; ok && l.sid != "" {
			sidActor[l.sid] = a
		}
	}
	byActor := make(map[int][]*opTrace)
	for _, op := range t.done {
		byActor[op.actor] = append(byActor[op.actor], op)
	}
	for _, ops := range byActor {
		sort.Slice(ops, func(i, j int) bool { return ops[i].spans[0].Start < ops[j].spans[0].Start })
	}
	for _, l := range t.loose {
		a, ok := t.kindActor[l.kind]
		if !ok {
			a, ok = sidActor[l.sid]
		}
		ops := byActor[a]
		i := sort.Search(len(ops), func(i int) bool { return ops[i].spans[0].Start > l.start }) - 1
		if !ok || i < 0 || l.start > ops[i].spans[0].End {
			t.unlinked++
			continue
		}
		ops[i].spans = append(ops[i].spans, span{Parent: 0, Layer: layerOwner, Class: l.cls, Start: l.start, End: l.end})
	}
}

// attribute splits an operation's wall time over its spans: at every
// instant the time goes, in equal shares, to the innermost spans active
// then (those with no active child). Parallel children thus share the
// interval they overlap, and the shares add up to exactly the root's
// duration. Spans are clipped to the root; raw sums their clipped
// durations.
func attribute(spans []span, self, raw *[numLayers][numClasses]float64) {
	root := spans[0]
	type event struct {
		t     int64
		i     int32
		start bool
	}
	evs := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		st, en := max(s.Start, root.Start), s.End
		if en == 0 || en > root.End {
			en = root.End
		}
		if en > st {
			evs = append(evs, event{st, int32(i), true}, event{en, int32(i), false})
			raw[s.Layer][s.Class] += float64(en - st)
		}
	}
	if len(evs) == 0 {
		return
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return !evs[a].start && evs[b].start
	})
	kids := make([]int32, len(spans))
	active := make([]bool, len(spans))
	var front []int32
	remove := func(i int32) {
		for j, f := range front {
			if f == i {
				front[j] = front[len(front)-1]
				front = front[:len(front)-1]
				return
			}
		}
	}
	prev := evs[0].t
	for _, e := range evs {
		if dt := e.t - prev; dt > 0 && len(front) > 0 {
			share := float64(dt) / float64(len(front))
			for _, f := range front {
				self[spans[f].Layer][spans[f].Class] += share
			}
		}
		prev = e.t
		p := spans[e.i].Parent
		if e.start {
			active[e.i] = true
			if p >= 0 && active[p] {
				if kids[p] == 0 {
					remove(p)
				}
				kids[p]++
			}
			if kids[e.i] == 0 {
				front = append(front, e.i)
			}
			continue
		}
		if kids[e.i] == 0 {
			remove(e.i)
		}
		active[e.i] = false
		if p >= 0 && active[p] {
			kids[p]--
			if kids[p] == 0 {
				front = append(front, p)
			}
		}
	}
}

// spansFile is the JSON layout --spans writes: the spans of the first
// traced operations, times in nanoseconds from each operation's start.
type spansFile struct {
	Workload string   `json:"workload"`
	Ops      []opJSON `json:"ops"`
}

type opJSON struct {
	Trace uint64     `json:"trace"`
	Actor int        `json:"actor"`
	Spans []spanJSON `json:"spans"`
}

type spanJSON struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Class   string `json:"class,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

func (t *tracer) layerName(l layer) string {
	switch l {
	case layerClient:
		return "transport.client"
	case layerWire:
		return "transport.wire"
	case layerOwner:
		return "transport.owner"
	}
	return t.rootLayer
}

func (t *tracer) writeSpans(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := spansFile{Workload: workload}
	for _, op := range t.kept {
		root := op.spans[0].Start
		o := opJSON{Trace: op.id, Actor: op.actor, Spans: make([]spanJSON, len(op.spans))}
		for i, s := range op.spans {
			o.Spans[i] = spanJSON{
				ID: i, Parent: int(s.Parent), Layer: t.layerName(s.Layer), Class: classNames[s.Class],
				StartNs: s.Start - root, DurNs: s.End - s.Start,
			}
		}
		out.Ops = append(out.Ops, o)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

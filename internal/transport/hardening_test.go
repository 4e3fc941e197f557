package transport

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"topk/internal/bestpos"
	"topk/internal/gen"
)

// TestBackoffDelayBounds is the backoff property test: however many
// attempts have failed, the jittered sleep is never zero when armed and
// never exceeds min(cap, base<<(a-1)); absurd attempt counts must not
// overflow the window.
func TestBackoffDelayBounds(t *testing.T) {
	cases := []struct{ base, cap time.Duration }{
		{DefaultBackoffBase, DefaultBackoffCap},
		{time.Millisecond, 8 * time.Millisecond},
		{time.Nanosecond, time.Microsecond},
		{50 * time.Millisecond, 50 * time.Millisecond},
	}
	for _, c := range cases {
		bk := defaultBackoff(c.base, c.cap)
		for a := 1; a <= 200; a++ {
			window := c.cap
			if shift := a - 1; shift < 62 {
				if w := c.base << shift; w > 0 && w < window {
					window = w
				}
			}
			for trial := 0; trial < 50; trial++ {
				d := bk.delay(a)
				if d <= 0 {
					t.Fatalf("base=%v cap=%v attempt=%d: armed backoff slept %v (two identical attempts back-to-back)", c.base, c.cap, a, d)
				}
				if d > window {
					t.Fatalf("base=%v cap=%v attempt=%d: slept %v beyond window %v", c.base, c.cap, a, d, window)
				}
			}
		}
	}
}

// TestBackoffDisabledAndDefaults pins the knob resolution: zero means
// defaults, negative base disables, cap is floored at base.
func TestBackoffDisabledAndDefaults(t *testing.T) {
	if bk := defaultBackoff(-1, 0); bk.delay(1) != 0 || bk.delay(50) != 0 {
		t.Fatal("negative base did not disable backoff")
	}
	if bk := defaultBackoff(0, 0); bk.base != DefaultBackoffBase || bk.cap != DefaultBackoffCap {
		t.Fatalf("zero knobs resolved to %+v", bk)
	}
	if bk := defaultBackoff(10*time.Millisecond, time.Millisecond); bk.cap != 10*time.Millisecond {
		t.Fatalf("cap below base resolved to %v", bk.cap)
	}
	var zero backoff
	if zero.delay(3) != 0 {
		t.Fatal("zero-value backoff slept")
	}
}

// TestBreakerUnit walks the breaker state machine: trip at K, blocked
// through the cooldown, half-open after it, doubled cooldown on a
// failed probe, closed (with the ladder reset) on success.
func TestBreakerUnit(t *testing.T) {
	var b breaker
	b.arm(3, 100*time.Millisecond)
	t0 := time.Now()
	if b.failure(t0) || b.failure(t0) {
		t.Fatal("breaker opened before the threshold")
	}
	if !b.failure(t0) {
		t.Fatal("third consecutive failure did not open the breaker")
	}
	if !b.blocked(t0.Add(50*time.Millisecond)) || b.state(t0.Add(50*time.Millisecond)) != breakerOpen {
		t.Fatal("open breaker not blocking inside the cooldown")
	}
	half := t0.Add(150 * time.Millisecond)
	if b.blocked(half) || b.state(half) != breakerHalfOpen {
		t.Fatal("breaker still blocking after the cooldown")
	}
	// A failed half-open probe doubles the cooldown: blocked again for
	// ~200ms from the failure.
	b.failure(half)
	if !b.blocked(half.Add(150*time.Millisecond)) || b.blocked(half.Add(250*time.Millisecond)) {
		t.Fatal("failed half-open probe did not double the cooldown")
	}
	if !b.success() {
		t.Fatal("success on an open breaker did not report the transition")
	}
	if b.state(half) != breakerClosed || b.cooldown.Load() != int64(100*time.Millisecond) {
		t.Fatal("success did not close and reset the ladder")
	}
	if b.success() {
		t.Fatal("success on a closed breaker reported a transition")
	}
	// Disabled breaker never opens.
	var off breaker
	for i := 0; i < 100; i++ {
		if off.failure(t0) {
			t.Fatal("unarmed breaker opened")
		}
	}
	if off.blocked(t0) || off.state(t0) != breakerClosed {
		t.Fatal("unarmed breaker not permanently closed")
	}
}

// countingGate fronts a replica, counting data-plane requests and
// optionally aborting every connection (a dead process).
type countingGate struct {
	inner http.Handler
	dead  atomic.Bool
	rpc   atomic.Int64
}

func (g *countingGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/rpc/") {
		g.rpc.Add(1)
	}
	if g.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	g.inner.ServeHTTP(w, r)
}

// TestBreakerFencesAndReadmits is the acceptance pin for the circuit
// breaker over a live 2-replica cluster: after K consecutive failures
// the breaker opens and replica A stops receiving traffic even once the
// prober re-validates it as healthy; when the cooldown lapses, a
// half-open data-plane exchange readmits it and the breaker closes.
func TestBreakerFencesAndReadmits(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 80, M: 1, Seed: 9})
	srvA, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	gateA := &countingGate{inner: srvA.Handler()}
	tsA := httptest.NewServer(gateA)
	defer tsA.Close()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	hc, err := Dial(context.Background(), DialConfig{
		Topology:         Topology{{tsA.URL, tsB.URL}},
		HealthInterval:   30 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// Healthy cluster: primary policy serves from A.
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 1}); err != nil {
		t.Fatal(err)
	}
	if gateA.rpc.Load() == 0 {
		t.Fatal("primary replica served nothing while healthy")
	}

	// Kill A. The failed exchange plus prober failures accumulate the K
	// consecutive failures that open the breaker.
	gateA.dead.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for hc.Health()[0].Breaker != breakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened; health %+v", hc.Health())
		}
		if _, err := s.Do(ctx, 0, SortedReq{Pos: 2}); err != nil {
			t.Fatalf("exchange failed despite sibling: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Revive A and wait for the prober to re-validate it. The breaker's
	// cooldown is far longer than the probe backoff, so there is a
	// window where A is healthy again yet still fenced.
	gateA.dead.Store(false)
	for {
		h := hc.Health()[0]
		if h.Healthy && h.Breaker == breakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached healthy+open; health %+v", hc.Health())
		}
		time.Sleep(10 * time.Millisecond)
	}
	before := gateA.rpc.Load()
	for i := 0; i < 8; i++ {
		if _, err := s.Do(ctx, 0, SortedReq{Pos: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if got := gateA.rpc.Load(); got != before {
		t.Fatalf("open breaker let %d exchanges through to the fenced replica", got-before)
	}

	// Once the cooldown lapses the next exchange is the half-open probe:
	// it lands on A, succeeds, and closes the breaker.
	readmit := time.Now().Add(15 * time.Second)
	for gateA.rpc.Load() == before {
		if time.Now().After(readmit) {
			t.Fatalf("fenced replica never readmitted; health %+v", hc.Health())
		}
		if _, err := s.Do(ctx, 0, SortedReq{Pos: 4}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for hc.Health()[0].Breaker != breakerClosed {
		if time.Now().After(readmit) {
			t.Fatalf("breaker never closed after readmission; health %+v", hc.Health())
		}
		if _, err := s.Do(ctx, 0, SortedReq{Pos: 5}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionShedAndBackpressure drives an exchange into an owner at
// its in-flight bound: the owner sheds it with the typed retry-after
// answer, the client absorbs the shed as backpressure (no health or
// breaker penalty) and completes once a slot frees up.
func TestAdmissionShedAndBackpressure(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 80, M: 1, Seed: 9})
	srv, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hc, err := Dial(context.Background(), DialConfig{
		Topology:       Topology{{ts.URL}},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Saturate the owner: one slot, held by a phantom exchange.
	srv.Owner().SetMaxInflight(1)
	if !srv.Owner().TryAcquire() {
		t.Fatal("empty owner refused an acquire")
	}
	release := time.AfterFunc(120*time.Millisecond, srv.Owner().Release)
	defer release.Stop()

	start := time.Now()
	resp, err := s.Do(context.Background(), 0, SortedReq{Pos: 1})
	if err != nil {
		t.Fatalf("shed exchange never completed: %v", err)
	}
	if got := resp.(SortedResp).Entry; got != one.List(0).At(1) {
		t.Errorf("backpressured exchange answered %+v", got)
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Error("exchange completed before the slot freed — shed path not exercised")
	}
	if srv.Owner().Shed() == 0 {
		t.Error("owner tallied no shed exchanges")
	}
	rec := s.(interface{ Recovery() SessionRecovery }).Recovery()
	if rec.Backpressure == 0 {
		t.Error("session tallied no backpressure waits")
	}
	h := hc.Health()[0]
	if h.Failures != 0 {
		t.Errorf("shed exchanges penalized replica health: %d failures", h.Failures)
	}
	if h.Breaker != breakerClosed {
		t.Errorf("shed exchanges moved the breaker to %s", h.Breaker)
	}
}

// FuzzDecodeResponseCorrupted is the chaos-codec fuzz target: valid
// /rpc bodies — a response frame followed by its receipt frame — torn
// at an arbitrary byte and with an arbitrary bit flipped (the exact
// damage the fault injector deals) must be rejected or decoded, never
// panic, through the whole-body decoder and the response-frame decoder
// alike.
func FuzzDecodeResponseCorrupted(f *testing.F) {
	receipts := codecReceipts()
	for i, resp := range codecResponses() {
		if enc, err := AppendResponseBinary(nil, resp); err == nil {
			enc = appendReceipt(enc, receipts[i%len(receipts)])
			f.Add(enc, uint16(len(enc)/2), uint32(7))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16, flip uint32) {
		if n := int(cut); n < len(data) {
			DecodeResponseBinary(data[:n])
			decodeBody(data[:n])
		}
		if len(data) > 0 {
			b := append([]byte(nil), data...)
			pos := int(flip) % (len(b) * 8)
			b[pos/8] ^= 1 << (pos % 8)
			DecodeResponseBinary(b)
			decodeBody(b)
		}
	})
}

// corruptingGate fronts a replica and flips one byte in the next `bad`
// data-plane response bodies AFTER the owner stamped the frame CRC —
// exactly what wire corruption looks like to the client.
type corruptingGate struct {
	inner http.Handler
	bad   atomic.Int64
}

func (g *corruptingGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/rpc/") || g.bad.Load() <= 0 {
		g.inner.ServeHTTP(w, r)
		return
	}
	g.bad.Add(-1)
	rec := httptest.NewRecorder()
	g.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if len(body) > 0 {
		body[0] ^= 0x40
	}
	h := w.Header()
	for k, vs := range rec.Result().Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	h.Del("Content-Length")
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// TestCorruptFrameRetried pins the end-to-end frame checksum: a
// response mangled in transit fails CRC verification, is classified
// transient, and the re-sent exchange returns the clean answer. When
// every attempt is mangled, the failure is the typed errCorruptFrame,
// never a silently wrong payload.
func TestCorruptFrameRetried(t *testing.T) {
	one := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 80, M: 1, Seed: 9})
	srv, err := NewServer(one, 0)
	if err != nil {
		t.Fatal(err)
	}
	gate := &corruptingGate{inner: srv.Handler()}
	ts := httptest.NewServer(gate)
	defer ts.Close()

	hc, err := Dial(context.Background(), DialConfig{
		Topology:       Topology{{ts.URL}},
		HealthInterval: -1,
		Retries:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	gate.bad.Store(1)
	resp, err := s.Do(context.Background(), 0, SortedReq{Pos: 3})
	if err != nil {
		t.Fatalf("exchange after one corrupt frame: %v", err)
	}
	if got, want := resp.(SortedResp).Entry, one.List(0).At(3); got != want {
		t.Errorf("retried exchange answered %+v, want %+v", got, want)
	}
	if gate.bad.Load() != 0 {
		t.Error("corrupt frame was never served")
	}

	// Corruption on every attempt: typed error, not a wrong answer.
	gate.bad.Store(1 << 20)
	if _, err := s.Do(context.Background(), 0, SortedReq{Pos: 4}); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("persistent corruption surfaced as %v, want errCorruptFrame", err)
	}
	gate.bad.Store(0)

	// The link healed: the same session keeps working.
	if _, err := s.Do(context.Background(), 0, SortedReq{Pos: 5}); err != nil {
		t.Fatalf("exchange after corruption cleared: %v", err)
	}
}

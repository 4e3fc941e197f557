package topk

// Benchmarks: one per table/figure of the paper's evaluation (Section 6),
// plus the trackers, tamemo and fagin ablations. Each sub-benchmark
// measures one (algorithm, sweep point) pair over a pre-generated
// database and reports the paper's metrics alongside ns/op:
//
//	cost/op      execution cost (sorted + log2(n) * (random+direct))
//	accesses/op  total list accesses
//
// The sweeps run at benchDBScale of the paper's database sizes so that
// `go test -bench=. -benchmem` finishes in minutes; cmd/topk-bench
// regenerates the full-size figures. Shapes are identical.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/core"
	"topk/internal/dht"
	"topk/internal/dist"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/obs"
	"topk/internal/paperdb"
	"topk/internal/score"
	"topk/internal/store"
	"topk/internal/store/stripe"
	"topk/internal/transport"
)

// benchDBScale shrinks the paper's n for benchmark runs (100,000 -> 10,000).
const benchDBScale = 0.1

func benchN(n int) int {
	v := int(float64(n) * benchDBScale)
	if v < 200 {
		v = 200
	}
	return v
}

// benchMs are the m sweep points benchmarked per figure; the full 2..18
// sweep is cmd/topk-bench territory.
var benchMs = []int{2, 8, 18}

var benchAlgs = []core.Algorithm{core.AlgTA, core.AlgBPA, core.AlgBPA2}

// runAlgBench benchmarks one algorithm over one database and reports the
// paper's metrics.
func runAlgBench(b *testing.B, db *list.Database, alg core.Algorithm, k int) {
	b.Helper()
	opts := core.Options{K: k, Scoring: score.Sum{}}
	model := access.DefaultCostModel(db.N())
	var lastCost float64
	var lastAccesses int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(alg, db, opts)
		if err != nil {
			b.Fatal(err)
		}
		lastCost = res.Cost(model)
		lastAccesses = res.Counts.Total()
	}
	b.ReportMetric(lastCost, "cost/op")
	b.ReportMetric(float64(lastAccesses), "accesses/op")
}

// benchMSweep is the common shape of Figures 3-11.
func benchMSweep(b *testing.B, kind gen.Kind, alpha float64) {
	for _, m := range benchMs {
		db := gen.MustGenerate(gen.Spec{Kind: kind, N: benchN(100_000), M: m, Alpha: alpha, Seed: 1})
		for _, alg := range benchAlgs {
			b.Run(fmt.Sprintf("m=%d/%s", m, alg), func(b *testing.B) {
				runAlgBench(b, db, alg, 20)
			})
		}
	}
}

// benchKSweep is the common shape of Figures 12-14.
func benchKSweep(b *testing.B, kind gen.Kind, alpha float64) {
	db := gen.MustGenerate(gen.Spec{Kind: kind, N: benchN(100_000), M: 8, Alpha: alpha, Seed: 1})
	for _, k := range []int{20, 100} {
		for _, alg := range benchAlgs {
			b.Run(fmt.Sprintf("k=%d/%s", k, alg), func(b *testing.B) {
				runAlgBench(b, db, alg, k)
			})
		}
	}
}

// benchNSweep is the common shape of Figures 15-17.
func benchNSweep(b *testing.B, kind gen.Kind, alpha float64) {
	for _, n := range []int{25_000, 100_000, 200_000} {
		db := gen.MustGenerate(gen.Spec{Kind: kind, N: benchN(n), M: 8, Alpha: alpha, Seed: 1})
		for _, alg := range benchAlgs {
			b.Run(fmt.Sprintf("n=%d/%s", benchN(n), alg), func(b *testing.B) {
				runAlgBench(b, db, alg, 20)
			})
		}
	}
}

// --- Figures 3-5: uniform database, m sweep ---------------------------

// BenchmarkFig03 regenerates Figure 3 (execution cost vs m, uniform);
// read cost/op. Figure 4 is accesses/op of the same runs; Figure 5 is
// ns/op (response time).
func BenchmarkFig03(b *testing.B) { benchMSweep(b, gen.Uniform, 0) }

// BenchmarkFig04 regenerates Figure 4 (number of accesses vs m, uniform);
// read accesses/op.
func BenchmarkFig04(b *testing.B) { benchMSweep(b, gen.Uniform, 0) }

// BenchmarkFig05 regenerates Figure 5 (response time vs m, uniform);
// read ns/op.
func BenchmarkFig05(b *testing.B) { benchMSweep(b, gen.Uniform, 0) }

// --- Figures 6-8: Gaussian database, m sweep --------------------------

// BenchmarkFig06 regenerates Figure 6 (execution cost vs m, Gaussian).
func BenchmarkFig06(b *testing.B) { benchMSweep(b, gen.Gaussian, 0) }

// BenchmarkFig07 regenerates Figure 7 (accesses vs m, Gaussian).
func BenchmarkFig07(b *testing.B) { benchMSweep(b, gen.Gaussian, 0) }

// BenchmarkFig08 regenerates Figure 8 (response time vs m, Gaussian).
func BenchmarkFig08(b *testing.B) { benchMSweep(b, gen.Gaussian, 0) }

// --- Figures 9-11: correlated databases, m sweep ----------------------

// BenchmarkFig09 regenerates Figure 9 (execution cost vs m, correlated
// alpha=0.001).
func BenchmarkFig09(b *testing.B) { benchMSweep(b, gen.Correlated, 0.001) }

// BenchmarkFig10 regenerates Figure 10 (execution cost vs m, correlated
// alpha=0.01).
func BenchmarkFig10(b *testing.B) { benchMSweep(b, gen.Correlated, 0.01) }

// BenchmarkFig11 regenerates Figure 11 (execution cost vs m, correlated
// alpha=0.1).
func BenchmarkFig11(b *testing.B) { benchMSweep(b, gen.Correlated, 0.1) }

// --- Figures 12-14: k sweeps ------------------------------------------

// BenchmarkFig12 regenerates Figure 12 (execution cost vs k, uniform).
func BenchmarkFig12(b *testing.B) { benchKSweep(b, gen.Uniform, 0) }

// BenchmarkFig13 regenerates Figure 13 (execution cost vs k, correlated
// alpha=0.01).
func BenchmarkFig13(b *testing.B) { benchKSweep(b, gen.Correlated, 0.01) }

// BenchmarkFig14 regenerates Figure 14 (execution cost vs k, correlated
// alpha=0.001).
func BenchmarkFig14(b *testing.B) { benchKSweep(b, gen.Correlated, 0.001) }

// --- Figures 15-17: n sweeps ------------------------------------------

// BenchmarkFig15 regenerates Figure 15 (execution cost vs n, uniform).
func BenchmarkFig15(b *testing.B) { benchNSweep(b, gen.Uniform, 0) }

// BenchmarkFig16 regenerates Figure 16 (execution cost vs n, correlated
// alpha=0.01).
func BenchmarkFig16(b *testing.B) { benchNSweep(b, gen.Correlated, 0.01) }

// BenchmarkFig17 regenerates Figure 17 (execution cost vs n, correlated
// alpha=0.0001).
func BenchmarkFig17(b *testing.B) { benchNSweep(b, gen.Correlated, 0.0001) }

// --- Table 1 / worked examples ----------------------------------------

// BenchmarkExamples runs every algorithm over the paper's Figure 1 and
// Figure 2 databases (Examples 1-3 and the Section 5.1 example).
func BenchmarkExamples(b *testing.B) {
	figs := []struct {
		name  string
		build func() (*list.Database, error)
	}{
		{"figure1", paperdb.Figure1},
		{"figure2", paperdb.Figure2},
	}
	for _, fig := range figs {
		db, err := fig.build()
		if err != nil {
			b.Fatal(err)
		}
		for _, alg := range core.Algorithms() {
			b.Run(fmt.Sprintf("%s/%s", fig.name, alg), func(b *testing.B) {
				runAlgBench(b, db, alg, 3)
			})
		}
	}
}

// --- Ablations ----------------------------------------------------------

// BenchmarkTrackers compares the best-position structures of Section 5.2
// under BPA on the default uniform workload.
func BenchmarkTrackers(b *testing.B) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: benchN(100_000), M: 8, Seed: 1})
	for _, kind := range bestpos.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			opts := core.Options{K: 20, Scoring: score.Sum{}, Tracker: kind}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(core.AlgBPA, db, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrackerMarkSeen isolates the tracker data structures: marking
// u random positions in a list of n, the regime analysis of Section 5.2.
func BenchmarkTrackerMarkSeen(b *testing.B) {
	const n = 100_000
	positions := make([]int, 4096)
	rng := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: len(positions), M: 1, Seed: 3})
	for i := range positions {
		// Derive a deterministic pseudo-random position stream from the
		// generated list's permutation.
		positions[i] = 1 + int(rng.List(0).At(i+1).Item)*(n/len(positions))
	}
	for _, kind := range bestpos.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := bestpos.New(kind, n)
				for _, p := range positions {
					tr.MarkSeen(p)
				}
			}
		})
	}
}

// BenchmarkTAMemoized quantifies TA's redundant random accesses (exp id
// "tamemo").
func BenchmarkTAMemoized(b *testing.B) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: benchN(100_000), M: 8, Seed: 1})
	for _, memo := range []bool{false, true} {
		name := "plain"
		if memo {
			name = "memoized"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.Options{K: 20, Scoring: score.Sum{}, Memoize: memo}
			model := access.DefaultCostModel(db.N())
			var lastCost float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.AlgTA, db, opts)
				if err != nil {
					b.Fatal(err)
				}
				lastCost = res.Cost(model)
			}
			b.ReportMetric(lastCost, "cost/op")
		})
	}
}

// BenchmarkDistributed measures the simulated message counts of the
// distributed protocols (Section 5 + the TPUT family).
func BenchmarkDistributed(b *testing.B) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: benchN(20_000), M: 6, Seed: 1})
	protocols := []struct {
		name string
		run  func(*list.Database, dist.Options) (*dist.Result, error)
	}{
		{"dist-ta", dist.TA},
		{"dist-bpa", dist.BPA},
		{"dist-bpa2", dist.BPA2},
		{"tput", dist.TPUT},
		{"tput-a", dist.TPUTA},
	}
	for _, p := range protocols {
		b.Run(p.name, func(b *testing.B) {
			var msgs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := p.run(db, dist.Options{K: 20, Scoring: score.Sum{}})
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Net.Messages
			}
			b.ReportMetric(float64(msgs), "messages/op")
		})
	}
}

// transportProtocols is the lineup BenchmarkTransport sweeps.
var transportProtocols = []struct {
	name string
	run  func(context.Context, transport.Transport, dist.Options) (*dist.Result, error)
}{
	{"dist-ta", dist.TAOver},
	{"dist-bpa", dist.BPAOver},
	{"dist-bpa2", dist.BPA2Over},
	{"tput", dist.TPUTOver},
	{"tput-a", dist.TPUTAOver},
}

// transportRTTs are the injected owner round-trips BenchmarkTransport
// sweeps.
var transportRTTs = []time.Duration{time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond}

// runTransport runs one protocol over a latency Loopback on
// BenchmarkTransport's workload (n=2000, m=6, k=20, seed 1).
func runTransport(db *list.Database, rtt time.Duration, run func(context.Context, transport.Transport, dist.Options) (*dist.Result, error)) (*dist.Result, error) {
	tp, err := transport.NewLatencyLoopback(db, transport.ConstantLatency(rtt))
	if err != nil {
		return nil, err
	}
	return run(context.Background(), tp, dist.Options{K: 20, Scoring: score.Sum{}})
}

// BenchmarkTransport sweeps the distributed protocols over a latency
// Loopback at 1ms/10ms/50ms injected owner round-trip latency. The
// reported wallclock metric is the virtual clock — per protocol round,
// the max (not the sum) of the owners' serialized exchange costs — so it
// measures what a real deployment would feel: TPUT's three batched
// fan-outs cost three round-trips however deep the lists, while the
// per-access protocols pay a data-dependent chain of rounds. rounds and
// the busiest owner's message count accompany it, since the round
// structure is exactly what the latency multiplies.
func BenchmarkTransport(b *testing.B) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: benchN(20_000), M: 6, Seed: 1})
	for _, rtt := range transportRTTs {
		for _, p := range transportProtocols {
			b.Run(fmt.Sprintf("rtt=%s/%s", rtt, p.name), func(b *testing.B) {
				var res *dist.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = runTransport(db, rtt, p.run); err != nil {
						b.Fatal(err)
					}
				}
				var busiest int64
				for _, c := range res.Net.PerOwner {
					if c > busiest {
						busiest = c
					}
				}
				b.ReportMetric(float64(res.Elapsed.Microseconds())/1e3, "wallclock-ms/op")
				b.ReportMetric(float64(res.Net.Rounds), "rounds/op")
				b.ReportMetric(float64(busiest), "max-owner-msgs/op")
			})
		}
	}
}

// TestTransportElapsedPinned pins BenchmarkTransport's virtual
// wall-clock exactly: every protocol at every swept latency must report
// the Elapsed below — for every protocol but dist-bpa2, the values the
// goroutine-per-owner backend this clock replaced reported on the same
// workload; dist-bpa2 pays m+1 sequential steps per round. The clock is
// a pure function of the exchanges, so any drift is a change in the
// protocols' round structure or in the clock itself.
func TestTransportElapsedPinned(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: benchN(20_000), M: 6, Seed: 1})
	want := map[time.Duration]map[string]time.Duration{
		time.Millisecond: {
			"dist-ta": 900 * time.Millisecond, "dist-bpa": 892 * time.Millisecond,
			"dist-bpa2": 1820 * time.Millisecond, "tput": 3 * time.Millisecond, "tput-a": 3 * time.Millisecond,
		},
		10 * time.Millisecond: {
			"dist-ta": 9 * time.Second, "dist-bpa": 8920 * time.Millisecond,
			"dist-bpa2": 18200 * time.Millisecond, "tput": 30 * time.Millisecond, "tput-a": 30 * time.Millisecond,
		},
		50 * time.Millisecond: {
			"dist-ta": 45 * time.Second, "dist-bpa": 44600 * time.Millisecond,
			"dist-bpa2": 91 * time.Second, "tput": 150 * time.Millisecond, "tput-a": 150 * time.Millisecond,
		},
	}
	for _, rtt := range transportRTTs {
		for _, p := range transportProtocols {
			res, err := runTransport(db, rtt, p.run)
			if err != nil {
				t.Fatalf("rtt=%s/%s: %v", rtt, p.name, err)
			}
			if res.Elapsed != want[rtt][p.name] {
				t.Errorf("rtt=%s/%s: Elapsed %v, want %v", rtt, p.name, res.Elapsed, want[rtt][p.name])
			}
		}
	}
}

// BenchmarkConcurrentSessions measures originator throughput
// (queries/sec) against one shared HTTP owner cluster as the number of
// concurrent originators grows, at 1ms and 10ms injected owner latency.
// Before the session redesign this workload was impossible: the owners
// held one query's state at a time, so a second originator corrupted the
// first. Now each query runs in its own owner-side session and
// throughput should scale with originators until the owners saturate —
// the ROADMAP's concurrent-originators direction made measurable. TPUT
// keeps each query at three round-trips, so the latency injected per
// /rpc exchange dominates and concurrency has something to overlap.
func BenchmarkConcurrentSessions(b *testing.B) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 2_000, M: 3, Seed: 1})
	for _, lat := range []time.Duration{time.Millisecond, 10 * time.Millisecond} {
		urls := make([]string, db.M())
		var closers []func()
		for i := range urls {
			srv, err := transport.NewServer(db, i)
			if err != nil {
				b.Fatal(err)
			}
			inner := srv.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, "/rpc/") {
					time.Sleep(lat)
				}
				inner.ServeHTTP(w, r)
			}))
			closers = append(closers, ts.Close)
			urls[i] = ts.URL
		}
		hc, err := transport.DialOwners(urls, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, originators := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("lat=%s/originators=%d", lat, originators), func(b *testing.B) {
				ctx := context.Background()
				// Pre-fill and close the work queue before the workers
				// start: if every worker bails out on an error, nothing
				// is left blocked on a send.
				queries := make(chan struct{}, b.N)
				for i := 0; i < b.N; i++ {
					queries <- struct{}{}
				}
				close(queries)
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < originators; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for range queries {
							if _, err := dist.TPUTOver(ctx, hc, dist.Options{K: 5, Scoring: score.Sum{}}); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(b.N)/secs, "queries/sec")
				}
			})
		}
		hc.Close()
		for _, c := range closers {
			c()
		}
	}
}

// BenchmarkObservabilityOverhead prices the observability layer on the
// BenchmarkConcurrentSessions workload: the same shared owner cluster at
// 10ms injected latency, 16 concurrent originators hammering TPUT, swept
// with the process-wide metrics registry off, on, and on with
// per-exchange tracing armed. The obs=on/trace=off point is the gated
// one — it must stay within 5% of obs=off throughput, which
// holds easily because each exchange costs a handful of atomic adds
// against a 10ms wire round-trip. Tracing adds one span append per
// exchange on top.
func BenchmarkObservabilityOverhead(b *testing.B) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 2_000, M: 3, Seed: 1})
	const lat = 10 * time.Millisecond
	const originators = 16
	urls := make([]string, db.M())
	var closers []func()
	for i := range urls {
		srv, err := transport.NewServer(db, i)
		if err != nil {
			b.Fatal(err)
		}
		inner := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/rpc/") {
				time.Sleep(lat)
			}
			inner.ServeHTTP(w, r)
		}))
		closers = append(closers, ts.Close)
		urls[i] = ts.URL
	}
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	hc, err := transport.DialOwners(urls, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer hc.Close()

	prev := obs.Default.Enabled()
	defer obs.Default.SetEnabled(prev)
	for _, mode := range []struct {
		name    string
		metrics bool
		trace   bool
	}{
		{"obs=off", false, false},
		{"obs=on", true, false},
		{"obs=on+trace", true, true},
	} {
		obs.Default.SetEnabled(mode.metrics)
		b.Run(mode.name, func(b *testing.B) {
			ctx := context.Background()
			queries := make(chan struct{}, b.N)
			for i := 0; i < b.N; i++ {
				queries <- struct{}{}
			}
			close(queries)
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < originators; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range queries {
						opts := dist.Options{K: 5, Scoring: score.Sum{}, Trace: mode.trace}
						if _, err := dist.TPUTOver(ctx, hc, opts); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "queries/sec")
			}
		})
	}
}

// recordingTransport wraps a Transport and records every wire message
// the originator actually ships — post-coalescing, so batches appear as
// batches, exactly what a codec would see on the HTTP path.
type recordingTransport struct {
	transport.Transport
	reqs  []transport.Request
	resps []transport.Response
}

func (r *recordingTransport) Open(ctx context.Context, tracker bestpos.Kind) (transport.Session, error) {
	s, err := r.Transport.Open(ctx, tracker)
	if err != nil {
		return nil, err
	}
	return &recordingSession{Session: s, p: r}, nil
}

type recordingSession struct {
	transport.Session
	p *recordingTransport
}

func (s *recordingSession) Do(ctx context.Context, owner int, req transport.Request) (transport.Response, error) {
	resp, err := s.Session.Do(ctx, owner, req)
	if err == nil {
		s.p.reqs = append(s.p.reqs, req)
		s.p.resps = append(s.p.resps, resp)
	}
	return resp, err
}

func (s *recordingSession) DoAll(ctx context.Context, calls []transport.Call) ([]transport.Response, error) {
	resps, err := s.Session.DoAll(ctx, calls)
	if err == nil {
		for i, c := range calls {
			s.p.reqs = append(s.p.reqs, c.Req)
			s.p.resps = append(s.p.resps, resps[i])
		}
	}
	return resps, err
}

// encodeTraceBinary runs one query's wire trace through the binary
// codec (encode requests and responses, decode responses — the
// originator's hot path) and returns the total wire bytes.
func encodeTraceBinary(b *testing.B, reqs []transport.Request, resps []transport.Response) int64 {
	var total int64
	var buf []byte
	for _, req := range reqs {
		out, err := transport.AppendRequestBinary(buf[:0], req)
		if err != nil {
			b.Fatal(err)
		}
		total += int64(len(out))
		buf = out
	}
	for _, resp := range resps {
		out, err := transport.AppendResponseBinary(buf[:0], resp)
		if err != nil {
			b.Fatal(err)
		}
		total += int64(len(out))
		buf = out
		if _, err := transport.DecodeResponseBinary(out); err != nil {
			b.Fatal(err)
		}
	}
	return total
}

// BenchmarkCodec prices the wire codec on whole-query message traces:
// each seeded protocol run is recorded post-coalescing (batches
// included), then every recorded message is encoded — and every response
// decoded. wire-bytes/query is the per-query traffic; run with
// -benchmem for the allocations of the encode/decode hot path.
func BenchmarkCodec(b *testing.B) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: benchN(20_000), M: 6, Seed: 1})
	for _, p := range transportProtocols {
		rec, err := recordTrace(db, p.run, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			var bytes int64
			for i := 0; i < b.N; i++ {
				bytes = encodeTraceBinary(b, rec.reqs, rec.resps)
			}
			b.ReportMetric(float64(bytes), "wire-bytes/query")
			b.ReportMetric(float64(len(rec.reqs)), "exchanges/query")
		})
	}
}

// recordTrace runs one protocol over a Loopback and records its wire
// messages.
func recordTrace(db *list.Database, run func(context.Context, transport.Transport, dist.Options) (*dist.Result, error), k int) (*recordingTransport, error) {
	lb, err := transport.NewLoopback(db)
	if err != nil {
		return nil, err
	}
	rec := &recordingTransport{Transport: lb}
	if _, err := run(context.Background(), rec, dist.Options{K: k, Scoring: score.Sum{}}); err != nil {
		return nil, err
	}
	return rec, nil
}

// TestBinaryCodecQueryBytes pins a whole query's /rpc traffic — every
// request body plus every response body, the response frame and its
// receipt frame — per protocol over a flat HTTP cluster on the seeded
// uniform workload (n=2000, m=4, k=10): the bytes-per-query table of the
// package documentation. Deterministic, since the queries are seeded and
// nothing fails; a change in the codec's frame layout, the receipt, or a
// protocol's messages moves it.
func TestBinaryCodecQueryBytes(t *testing.T) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: 2_000, M: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, db.db.M())
	for i := range urls {
		srv, err := transport.NewServer(db.db, i)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls[i] = ts.URL
	}
	hc, err := transport.DialOwners(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	want := map[string]int64{
		"dist-ta":   212_976,
		"dist-bpa":  227_664,
		"dist-bpa2": 229_360,
		"tput":      72_644,
		"tput-a":    72_644,
	}
	for _, p := range transportProtocols {
		res, err := p.run(context.Background(), hc, dist.Options{K: 10, Scoring: score.Sum{}, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		var bytes int64
		for _, sp := range res.Trace {
			bytes += int64(sp.ReqBytes + sp.RespBytes)
		}
		if bytes != want[p.name] {
			t.Errorf("%s: %d wire bytes per query, want %d", p.name, bytes, want[p.name])
		}
	}
}

// BenchmarkDHT measures the overlay extension (paper §8 future work):
// dist-bpa2 over Chord rings of growing size, reporting total hops.
func BenchmarkDHT(b *testing.B) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: benchN(20_000), M: 4, Seed: 1})
	for _, ringSize := range []int{256, 4096} {
		ring, err := dht.NewRing(ringSize, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("nodes=%d", ringSize), func(b *testing.B) {
			var hops int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := dht.TopK(ring, db, dist.Options{K: 20, Scoring: score.Sum{}}, dist.BPA2, dht.Cached, 1)
				if err != nil {
					b.Fatal(err)
				}
				hops = res.Hops
			}
			b.ReportMetric(float64(hops), "hops/op")
		})
	}
}

// BenchmarkFaginBaselines places the paper's algorithms inside the wider
// Fagin framework (exp id "fagin"): the sorted-only NRA, the balanced
// CA, TA, and BPA2 on the default uniform workload.
func BenchmarkFaginBaselines(b *testing.B) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: benchN(100_000), M: 8, Seed: 1})
	for _, alg := range []core.Algorithm{core.AlgNRA, core.AlgCA, core.AlgTA, core.AlgBPA2} {
		b.Run(alg.String(), func(b *testing.B) {
			runAlgBench(b, db, alg, 20)
		})
	}
}

// BenchmarkRestrictedAccess compares TAz and BPAz when half the lists
// are random-access only, over an independent and a correlated workload
// (BPAz's gain needs correlation; see examples/websources).
func BenchmarkRestrictedAccess(b *testing.B) {
	sortable := []bool{true, false, true, false, true, false, true, false}
	for _, wl := range []struct {
		name  string
		kind  gen.Kind
		alpha float64
	}{{"uniform", gen.Uniform, 0}, {"correlated", gen.Correlated, 0.01}} {
		db := gen.MustGenerate(gen.Spec{Kind: wl.kind, N: benchN(100_000), M: 8, Alpha: wl.alpha, Seed: 1})
		restr := core.Restricted{Sortable: sortable}
		runs := []struct {
			name string
			run  func(*access.Probe, core.Options, core.Restricted) (*core.Result, error)
		}{{"TAz", core.TAz}, {"BPAz", core.BPAz}}
		for _, r := range runs {
			b.Run(wl.name+"/"+r.name, func(b *testing.B) {
				opts := core.Options{K: 20, Scoring: score.Sum{}}
				var accesses int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := r.run(access.NewProbe(db), opts, restr)
					if err != nil {
						b.Fatal(err)
					}
					accesses = res.Counts.Total()
				}
				b.ReportMetric(float64(accesses), "accesses/op")
			})
		}
	}
}

// BenchmarkMonitor measures one continuous-query re-evaluation over a
// sliding window with a thousand live keys.
func BenchmarkMonitor(b *testing.B) {
	mon, err := NewMonitor(MonitorConfig{Sources: 4, K: 20, WindowBuckets: 5})
	if err != nil {
		b.Fatal(err)
	}
	for src := 0; src < 4; src++ {
		for i := 0; i < 1000; i++ {
			if err := mon.Observe(src, fmt.Sprintf("key%04d", i), float64((i*7+src)%101)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.TopK(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPI measures the facade overhead end to end.
func BenchmarkPublicAPI(b *testing.B) {
	db, err := Generate(GenSpec{Kind: GenUniform, N: benchN(100_000), M: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []Algorithm{BPA2, BPA, TA} {
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(context.Background(), Query{K: 20, Algorithm: alg}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStripeStore prices the disk-backed store against RAM on the
// two axes that matter operationally: query throughput (TA over the same
// database, memory-resident vs served from a stripe file through the
// bounded cache) and owner startup (cold open = full binary reload;
// warm restart = stripe reopen, which reads only the footer).
func BenchmarkStripeStore(b *testing.B) {
	spec := gen.Spec{Kind: gen.Uniform, N: benchN(100_000), M: 8, Seed: 1}
	db := gen.MustGenerate(spec)
	dir := b.TempDir()
	binPath := dir + "/db.topk"
	stripePath := dir + "/db.stripe"
	if err := store.SaveFile(binPath, db); err != nil {
		b.Fatal(err)
	}
	if err := stripe.Create(stripePath, db, stripe.WriteOptions{}); err != nil {
		b.Fatal(err)
	}

	opts := core.Options{K: 20, Scoring: score.Sum{}}
	b.Run("query/ram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(core.AlgTA, db, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query/stripe", func(b *testing.B) {
		sdb, err := stripe.Open(stripePath, stripe.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer sdb.Close()
		disk, err := sdb.Database()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(core.AlgTA, disk, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open/cold-binary-reload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.LoadFile(binPath); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open/warm-stripe-reopen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sdb, err := stripe.Open(stripePath, stripe.Options{})
			if err != nil {
				b.Fatal(err)
			}
			// One point read proves the reopened file serves; the rest
			// of the data stays untouched, which is the warm property.
			sdb.List(0).At(1)
			sdb.Close()
		}
	})
}

// BenchmarkAboveScan measures the owner side of TPUT's phase 2 alone:
// one AboveReq from a fresh session whose threshold keeps the first
// three quarters of an n=100,000 list — about the per-owner scan of the
// cluster-tput-disk workload — over a RAM owner and over a stripe-backed
// owner whose cache holds an eighth of the list (16 bytes per entry),
// so most stripes are loaded from the file on every scan. Both owners
// read the entries above the threshold as stripe-aligned ranges; ns/op
// and B/op are the handler's cost per scan.
func BenchmarkAboveScan(b *testing.B) {
	const n = 100_000
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: n, M: 1, Seed: 1})
	path := b.TempDir() + "/db.stripe"
	if err := stripe.Create(path, db, stripe.WriteOptions{}); err != nil {
		b.Fatal(err)
	}
	sdb, err := stripe.Open(path, stripe.Options{CacheBytes: 16 * n / 8})
	if err != nil {
		b.Fatal(err)
	}
	defer sdb.Close()
	disk, err := sdb.Database()
	if err != nil {
		b.Fatal(err)
	}
	req := transport.AboveReq{T: db.List(0).At(3 * n / 4).Score}
	for _, c := range []struct {
		name string
		db   *list.Database
	}{{"ram", db}, {"stripe", disk}} {
		b.Run(c.name, func(b *testing.B) {
			o, err := transport.NewOwner(c.db, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var entries int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := o.Open("scan", bestpos.BitArrayKind); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				resp, err := o.Handle("scan", req)
				if err != nil {
					b.Fatal(err)
				}
				entries = len(resp.(transport.AboveResp).Entries)
			}
			b.ReportMetric(float64(entries), "entries/op")
		})
	}
}

// BenchmarkTPUTOriginator measures one TPUT query over the in-process
// transport at the cluster-tput-disk workload's shape — n=100,000, m=4,
// k=20, uniform scores — where phase 2 ships about 300,000 entries to
// the originator. Owners are RAM lists, so ns/op, B/op and allocs/op are
// dominated by the originator's bookkeeping and the owners' scans, with
// no wire or disk in between.
func BenchmarkTPUTOriginator(b *testing.B) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 100_000, M: 4, Seed: 1})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		b.Fatal(err)
	}
	defer lb.Close()
	opts := dist.Options{K: 20, Scoring: score.Sum{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.TPUTOver(context.Background(), lb, opts); err != nil {
			b.Fatal(err)
		}
	}
}

package stripe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"topk/internal/list"
)

// rangeReader is the bulk read both list stores offer.
type rangeReader interface {
	list.Reader
	AppendRange(dst []list.Entry, from, to int) []list.Entry
}

// atLoop is the per-entry reference for AppendRange.
func atLoop(r list.Reader, dst []list.Entry, from, to int) []list.Entry {
	for p := from; p <= to; p++ {
		dst = append(dst, r.At(p))
	}
	return dst
}

// TestAppendRangeMatchesAt: over stripe-backed and RAM lists, a range
// read appends exactly what an At loop appends — single entries, ranges
// inside one stripe, ranges crossing one or many stripe boundaries, the
// last partial stripe and the whole list — and keeps what dst held.
func TestAppendRangeMatchesAt(t *testing.T) {
	const n, stripeCap = 1000, 64 // 15 full stripes and a final one of 40
	db := genDB(t, n, 2)
	sdb := openBytes(t, db, WriteOptions{StripeCap: stripeCap, PosPageCap: 100}, Options{})
	ranges := [][2]int{
		{1, n},
		{1, 1}, {n, n}, {stripeCap, stripeCap}, {stripeCap + 1, stripeCap + 1},
		{1, stripeCap}, {stripeCap + 1, 2 * stripeCap}, {3, 17},
		{stripeCap, stripeCap + 1}, {stripeCap - 5, 3*stripeCap + 7}, {2, n - 1},
		{15*stripeCap + 1, n}, {15 * stripeCap, n}, {n - 3, n},
	}
	for p := 1; p <= n; p += 37 {
		ranges = append(ranges, [2]int{p, p})
	}
	for i := 0; i < db.M(); i++ {
		for _, r := range []struct {
			name string
			l    rangeReader
		}{{"stripe", sdb.List(i)}, {"ram", db.List(i).(*list.List)}} {
			for _, rg := range ranges {
				prefix := []list.Entry{{Item: -1, Score: 7}}
				want := atLoop(db.List(i), append([]list.Entry(nil), prefix...), rg[0], rg[1])
				got := r.l.AppendRange(append([]list.Entry(nil), prefix...), rg[0], rg[1])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s list %d AppendRange(%d, %d): got %d entries, want %d (or contents differ)",
						r.name, i, rg[0], rg[1], len(got), len(want))
				}
			}
		}
	}
}

// TestAppendRangePanics: a range read rejects the ranges At would reject
// and an empty range, on both stores.
func TestAppendRangePanics(t *testing.T) {
	db := genDB(t, 100, 1)
	sdb := openBytes(t, db, WriteOptions{StripeCap: 16, PosPageCap: 16}, Options{})
	for _, l := range []rangeReader{sdb.List(0), db.List(0).(*list.List)} {
		for _, rg := range [][2]int{{0, 5}, {5, 101}, {6, 5}, {101, 101}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%T AppendRange(%d, %d) did not panic", l, rg[0], rg[1])
					}
				}()
				l.AppendRange(nil, rg[0], rg[1])
			}()
		}
	}
}

// TestAppendRangeCacheCounts: a range read counts one cache hit or miss
// per entry read. With a budget that holds the whole list it reports
// exactly the tallies of the per-entry loop. With a budget of three
// stripes, the first three stripes the reads enter are admitted and stay
// resident, and every later stripe is read past the cache: no eviction,
// and a miss per entry read from it. With a budget below one stripe,
// each stripe is loaded once, every entry is a miss and nothing is
// hinted.
func TestAppendRangeCacheCounts(t *testing.T) {
	const n, stripeCap = 1024, 64
	db := genDB(t, n, 1)
	wopts := WriteOptions{StripeCap: stripeCap, PosPageCap: stripeCap}
	ranges := [][2]int{{1, n}, {5, 300}, {300, 301}, {700, 1000}, {1, 1}, {n - 10, n}}
	var reads int64
	for _, rg := range ranges {
		reads += int64(rg[1] - rg[0] + 1)
	}

	// The whole list fits: range reads tally as the At loop does.
	byRange := openBytes(t, db, wopts, Options{CacheBytes: n * entryBytes})
	byEntry := openBytes(t, db, wopts, Options{CacheBytes: n * entryBytes})
	for _, rg := range ranges {
		byRange.List(0).AppendRange(nil, rg[0], rg[1])
		atLoop(byEntry.List(0), nil, rg[0], rg[1])
	}
	got, want := byRange.CacheStats(), byEntry.CacheStats()
	if got != want {
		t.Fatalf("range reads tally %+v, per-entry reads %+v", got, want)
	}
	if got.Hits+got.Misses != reads || got.Evictions != 0 {
		t.Fatalf("hits %d + misses %d over %d entries read (evictions %d)", got.Hits, got.Misses, reads, got.Evictions)
	}
	checkHints(t, byRange)

	// Three stripes of budget: the reads bypass what does not fit.
	const budgetStripes = 3
	bypass := openBytes(t, db, wopts, Options{CacheBytes: budgetStripes * stripeCap * entryBytes})
	resident := map[int]bool{}
	var hits, misses int64
	for _, rg := range ranges {
		bypass.List(0).AppendRange(nil, rg[0], rg[1])
		for p := rg[0]; p <= rg[1]; {
			si := (p - 1) / stripeCap
			read := int64(min(rg[1], (si+1)*stripeCap) - p + 1)
			switch {
			case resident[si]:
				hits += read
			case len(resident) < budgetStripes:
				resident[si] = true
				misses++
				hits += read - 1
			default:
				misses += read
			}
			p += int(read)
		}
	}
	got = bypass.CacheStats()
	if got.Hits != hits || got.Misses != misses || got.Evictions != 0 || got.Hits+got.Misses != reads {
		t.Fatalf("range reads over a 3-stripe budget tally %+v, want %d hits, %d misses of %d entries read and no eviction",
			got, hits, misses, reads)
	}
	if got.Resident != budgetStripes*stripeCap*entryBytes {
		t.Fatalf("%d bytes resident, want the %d stripes first read", got.Resident, budgetStripes)
	}
	checkHints(t, bypass)

	loads := 0
	uncached := openBytes(t, db, wopts, Options{CacheBytes: 100})
	uncached.r = countingReaderAt{uncached.r, &loads}
	uncached.List(0).AppendRange(nil, 1, n)
	if b := uncached.List(0).hint.Load(); b != nil {
		t.Fatalf("uncached stripe %d hinted", b.idx)
	}
	if st := uncached.CacheStats(); st.Hits != 0 || st.Misses != n || st.MaxResident != 0 {
		t.Fatalf("uncached range read: %+v, want 0 hits, %d misses, nothing resident", st, n)
	}
	if want := n / stripeCap; loads != want {
		t.Fatalf("uncached range read loaded %d blocks, want one per stripe: %d", loads, want)
	}
}

// countingReaderAt counts the block reads a DB makes.
type countingReaderAt struct {
	r io.ReaderAt
	n *int
}

func (c countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	*c.n++
	return c.r.ReadAt(p, off)
}

// TestAppendRangeConcurrent: under -race, range scans of random spans
// run beside At and PositionOf readers of the same lists over a budget
// of about two stripes. Answers match the RAM lists, every entry a range
// read and every At and PositionOf lookup is counted once as a hit or a
// miss, the budget holds, and no hint outlives its block — neither after
// the evictions nor after Close.
func TestAppendRangeConcurrent(t *testing.T) {
	const n, m, stripeCap = 4096, 2, 256
	db := genDB(t, n, m)
	// A stripe decodes to 256*16 = 4 KiB and a position page to 1 KiB.
	sdb := openBytes(t, db, WriteOptions{StripeCap: stripeCap, PosPageCap: stripeCap}, Options{CacheBytes: 9 << 10})

	var lookups atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var calls int64
			var buf []list.Entry
			for r := 0; r < 300; r++ {
				i := rng.Intn(m)
				mem, dsk := db.List(i), sdb.List(i)
				switch g % 3 {
				case 0: // range scans
					from := 1 + rng.Intn(n)
					to := min(n, from+rng.Intn(3*stripeCap))
					buf = dsk.AppendRange(buf[:0], from, to)
					calls += int64(to - from + 1)
					if want := atLoop(mem, nil, from, to); !reflect.DeepEqual(buf, want) {
						t.Errorf("list %d AppendRange(%d, %d) diverges from the RAM list", i, from, to)
						return
					}
				case 1: // point reads
					p := 1 + rng.Intn(n)
					calls++
					if got, want := dsk.At(p), mem.At(p); got != want {
						t.Errorf("list %d At(%d) = %+v, want %+v", i, p, got, want)
						return
					}
				case 2: // position pages
					d := list.ItemID(rng.Intn(n))
					calls++
					if got, want := dsk.PositionOf(d), mem.PositionOf(d); got != want {
						t.Errorf("list %d PositionOf(%d) = %d, want %d", i, d, got, want)
						return
					}
				}
			}
			lookups.Add(calls)
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := sdb.CacheStats()
	if got := st.Hits + st.Misses; got != lookups.Load() {
		t.Fatalf("hits %d + misses %d = %d, want one per entry read or lookup: %d", st.Hits, st.Misses, got, lookups.Load())
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", st)
	}
	if st.MaxResident > st.Budget {
		t.Fatalf("high-water %d over budget %d", st.MaxResident, st.Budget)
	}
	checkHints(t, sdb)
	sdb.Close()
	for _, l := range sdb.lists {
		if b := l.hint.Load(); b != nil {
			t.Fatalf("list %d still hints stripe %d after Close", l.idx, b.idx)
		}
	}
}

// TestRangeBypassKeepsResident: under -race, scans of a whole list run
// beside point reads of the stripes made resident before them, over a
// budget that holds exactly those stripes. The scans read past the
// cache: answers match the RAM lists, nothing is evicted, the same
// stripes stay resident, every entry read is counted once as a hit or
// a miss, and every hint still points at a resident block.
func TestRangeBypassKeepsResident(t *testing.T) {
	const n, m, stripeCap = 4096, 2, 256
	db := genDB(t, n, m)
	sdb := openBytes(t, db, WriteOptions{StripeCap: stripeCap, PosPageCap: stripeCap},
		Options{CacheBytes: 3 * stripeCap * entryBytes})
	hot := []int{5, 9, 12} // stripes of list 0
	var reads atomic.Int64
	for _, si := range hot {
		sdb.List(0).At(si*stripeCap + 1)
		reads.Add(1)
	}
	residentKeys := func() []ckey {
		sdb.cache.mu.Lock()
		defer sdb.cache.mu.Unlock()
		keys := make([]ckey, 0, len(sdb.cache.entries))
		for k := range sdb.cache.entries {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b ckey) int { return int(a.idx) - int(b.idx) })
		return keys
	}
	before := residentKeys()
	if len(before) != len(hot) {
		t.Fatalf("%d blocks resident after the point reads, want %d", len(before), len(hot))
	}
	checkHints(t, sdb)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var buf []list.Entry
			for r := 0; r < 20; r++ {
				if g%2 == 0 { // whole-list scans of either list
					i := rng.Intn(m)
					buf = sdb.List(i).AppendRange(buf[:0], 1, n)
					reads.Add(n)
					if want := atLoop(db.List(i), nil, 1, n); !reflect.DeepEqual(buf, want) {
						t.Errorf("list %d scan diverges from the RAM list", i)
						return
					}
					continue
				}
				for q := 0; q < 50; q++ { // point reads inside the hot stripes
					p := hot[rng.Intn(len(hot))]*stripeCap + 1 + rng.Intn(stripeCap)
					reads.Add(1)
					if got, want := sdb.List(0).At(p), db.List(0).At(p); got != want {
						t.Errorf("At(%d) = %+v, want %+v", p, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if after := residentKeys(); !reflect.DeepEqual(after, before) {
		t.Fatalf("resident blocks %v after the scans, want %v", after, before)
	}
	st := sdb.CacheStats()
	if st.Evictions != 0 {
		t.Fatalf("scans evicted %d blocks", st.Evictions)
	}
	if got := st.Hits + st.Misses; got != reads.Load() {
		t.Fatalf("hits %d + misses %d = %d, want one per entry read: %d", st.Hits, st.Misses, got, reads.Load())
	}
	checkHints(t, sdb)
	if b := sdb.List(1).hint.Load(); b != nil {
		t.Fatalf("list 1 hints stripe %d, which scans read past the cache", b.idx)
	}
}

// TestRangeBypassChecksBlocks: a stripe read past the cache is checked
// as fully as one loaded into it. Each corruption of the first stripe —
// a flipped bit, and under a recomputed CRC an item out of range, a NaN
// score, scores out of order and a fence disagreement — makes Verify
// fail, and makes both a point read through the cache and a range read
// past it panic with an error naming the stripe.
func TestRangeBypassChecksBlocks(t *testing.T) {
	const n, stripeCap = 300, 64
	db := genDB(t, n, 1)
	raw, err := WriteBytes(db, WriteOptions{StripeCap: stripeCap, PosPageCap: stripeCap})
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := OpenReader(bytes.NewReader(raw), int64(len(raw)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := pristine.ft.lists[0].stripes[0]
	pristine.Close()
	items, scores := int(st.off)+4, int(st.off)+4+4*st.count
	score := func(b []byte, j int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b[scores+8*j:]))
	}
	setScore := func(b []byte, j int, s float64) {
		binary.LittleEndian.PutUint64(b[scores+8*j:], math.Float64bits(s))
	}
	cases := map[string]func(b []byte) (recrc bool){
		"bit flip":     func(b []byte) bool { b[items] ^= 0xff; return false },
		"item range":   func(b []byte) bool { binary.LittleEndian.PutUint32(b[items+4:], n); return true },
		"nan score":    func(b []byte) bool { setScore(b, 3, math.NaN()); return true },
		"out of order": func(b []byte) bool { s := score(b, 2); setScore(b, 2, score(b, 3)); setScore(b, 3, s); return true },
		"fence": func(b []byte) bool {
			setScore(b, 0, (score(b, 0)+score(b, 1))/2)
			return true
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			b := bytes.Clone(raw)
			if corrupt(b) {
				end := int(st.off) + st.length - 4
				binary.LittleEndian.PutUint32(b[end:], crc32.ChecksumIEEE(b[st.off:end]))
			}
			if bytes.Equal(b, raw) {
				t.Fatal("corruption left the file unchanged")
			}
			for _, read := range []struct {
				name   string
				budget int64
				read   func(l *List)
			}{
				{"point read", 0, func(l *List) { l.At(2) }},
				{"range read past the cache", 100, func(l *List) { l.AppendRange(nil, 2, n) }},
			} {
				sdb, err := OpenReader(bytes.NewReader(b), int64(len(b)), Options{CacheBytes: read.budget})
				if err != nil {
					t.Fatal(err)
				}
				if err := sdb.Verify(); err == nil {
					t.Fatal("Verify accepted the corrupted stripe")
				}
				func() {
					defer func() {
						if msg := fmt.Sprint(recover()); !strings.Contains(msg, "list 0 stripe 0") {
							t.Errorf("%s: panic %q does not name list 0 stripe 0", read.name, msg)
						}
					}()
					read.read(sdb.List(0))
				}()
				if st := sdb.CacheStats(); st.Resident != 0 {
					t.Errorf("%s: %d bytes resident after a failed load", read.name, st.Resident)
				}
			}
		})
	}
}

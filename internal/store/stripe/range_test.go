package stripe

import (
	"io"
	"math/rand"
	"reflect"
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

// TestAppendRangeCacheCounts: a range read reports the cache traffic the
// per-entry loop would — one hit or miss per entry read, exactly the
// same tallies on a single reader — while the uncached-block case (a
// budget below one stripe) loads each stripe once yet counts every
// entry as a miss and never hints.
func TestAppendRangeCacheCounts(t *testing.T) {
	const n, stripeCap = 1024, 64
	db := genDB(t, n, 1)
	wopts := WriteOptions{StripeCap: stripeCap, PosPageCap: stripeCap}
	ranges := [][2]int{{1, n}, {5, 300}, {300, 301}, {700, 1000}, {1, 1}, {n - 10, n}}

	// Three stripes of budget: reads evict as they go.
	byRange := openBytes(t, db, wopts, Options{CacheBytes: 3 * stripeCap * entryBytes})
	byEntry := openBytes(t, db, wopts, Options{CacheBytes: 3 * stripeCap * entryBytes})
	var reads int64
	for _, rg := range ranges {
		byRange.List(0).AppendRange(nil, rg[0], rg[1])
		atLoop(byEntry.List(0), nil, rg[0], rg[1])
		reads += int64(rg[1] - rg[0] + 1)
	}
	got, want := byRange.CacheStats(), byEntry.CacheStats()
	if got != want {
		t.Fatalf("range reads tally %+v, per-entry reads %+v", got, want)
	}
	if got.Hits+got.Misses != reads || got.Evictions == 0 {
		t.Fatalf("hits %d + misses %d over %d entries read (evictions %d)", got.Hits, got.Misses, reads, got.Evictions)
	}
	checkHints(t, byRange)

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

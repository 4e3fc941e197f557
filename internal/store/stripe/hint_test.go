package stripe

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"topk/internal/list"
)

// checkHints asserts the hint invariant: every list hint is nil or
// points at the very block the cache holds resident for it, so hints
// never keep alive a block the cache dropped.
func checkHints(t *testing.T, sdb *DB) {
	t.Helper()
	sdb.cache.mu.Lock()
	defer sdb.cache.mu.Unlock()
	for _, l := range sdb.lists {
		b := l.hint.Load()
		if b == nil {
			continue
		}
		e, ok := sdb.cache.entries[ckey{kind: kindEntries, list: int32(l.idx), idx: int32(b.idx)}]
		if !ok || e.val.(*block) != b {
			t.Fatalf("list %d hints stripe %d, which the cache does not hold", l.idx, b.idx)
		}
	}
}

// TestHintConcurrent: four goroutines scan and random-read every list of
// a DB whose budget holds about two stripes, under -race. Answers match
// the RAM lists, every block lookup (At and PositionOf) is counted once
// as a hit or a miss, the budget holds, and no hint outlives its block —
// neither after the evictions the readers caused nor after Close.
func TestHintConcurrent(t *testing.T) {
	const n, m, stripeCap = 4096, 3, 256
	db := genDB(t, n, m)
	// A stripe decodes to 256*16 = 4 KiB and a position page to 1 KiB.
	sdb := openBytes(t, db, WriteOptions{StripeCap: stripeCap, PosPageCap: stripeCap}, Options{CacheBytes: 9 << 10})

	var lookups atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var calls int64
			for i := 0; i < m; i++ {
				mem, dsk := db.List(i), sdb.List(i)
				for p := 1; p <= n; p++ {
					calls++
					if got, want := dsk.At(p), mem.At(p); got != want {
						t.Errorf("list %d At(%d) = %+v, want %+v", i, p, got, want)
						return
					}
				}
				for r := 0; r < n/4; r++ {
					d := list.ItemID(rng.Intn(n))
					calls += 2
					if got, want := dsk.ScoreOf(d), mem.ScoreOf(d); got != want {
						t.Errorf("list %d ScoreOf(%d) = %v, want %v", i, d, got, want)
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
		t.Fatalf("hits %d + misses %d = %d, want one per block lookup: %d", st.Hits, st.Misses, got, lookups.Load())
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", st)
	}
	if st.MaxResident > st.Budget {
		t.Fatalf("high-water %d over budget %d", st.MaxResident, st.Budget)
	}
	checkHints(t, sdb)

	// Evict everything a hint may point at: read one stripe of each
	// list, then push them all out with position pages.
	for i := 0; i < m; i++ {
		sdb.List(i).At(1)
	}
	checkHints(t, sdb)
	for d := 0; d < n; d += stripeCap {
		sdb.List(0).PositionOf(list.ItemID(d))
	}
	checkHints(t, sdb)
	for _, l := range sdb.lists {
		if b := l.hint.Load(); b != nil {
			t.Fatalf("list %d still hints stripe %d after position pages evicted every stripe", l.idx, b.idx)
		}
	}

	sdb.Close()
	for _, l := range sdb.lists {
		if b := l.hint.Load(); b != nil {
			t.Fatalf("list %d still hints stripe %d after Close", l.idx, b.idx)
		}
	}
}

// TestHintNeverUncached: with a budget below one stripe, every block is
// served uncached, so no read is ever hinted — each one is a miss.
func TestHintNeverUncached(t *testing.T) {
	db := genDB(t, 1024, 2)
	sdb := openBytes(t, db, WriteOptions{StripeCap: 256, PosPageCap: 256}, Options{CacheBytes: 100})
	reads := int64(0)
	for i := 0; i < 2; i++ {
		for p := 1; p <= 1024; p++ {
			reads++
			if got, want := sdb.List(i).At(p), db.List(i).At(p); got != want {
				t.Fatalf("list %d At(%d) = %+v, want %+v", i, p, got, want)
			}
			if b := sdb.List(i).hint.Load(); b != nil {
				t.Fatalf("list %d hints uncached stripe %d", i, b.idx)
			}
		}
	}
	if st := sdb.CacheStats(); st.Hits != 0 || st.Misses != reads || st.MaxResident != 0 {
		t.Fatalf("oversized blocks: %+v, want %d misses and nothing resident", st, reads)
	}
}

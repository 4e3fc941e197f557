package transport

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/store/stripe"
)

// TestAboveSeekScoreParity pins the stripe fast path of the above scan:
// a stripe-backed owner answers phase-2 threshold scans through
// List.SeekScore (a fence binary search instead of a positional walk),
// and every response — entries, nil-vs-empty shape, and the session
// depth the next call resumes from — must be bit-identical to the plain
// positional loop an owner over a list without SeekScore runs. The
// charged-read rule is the subtle part: even when the whole remaining
// tail is below T, the plain loop spends exactly one sorted access
// discovering that, so the seek path must perform (and charge) that
// read too.
func TestAboveSeekScoreParity(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 200, M: 1, Seed: 5})
	aboveSeekParity(t, db, stripeBacked(t, db))
}

// TestAboveRAMSeekParity holds the RAM fast path of the above scan —
// *list.List's binary-search SeekScore, which sizes the reply up front —
// to the same plain positional loop, scenario for scenario.
func TestAboveRAMSeekParity(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 200, M: 1, Seed: 5})
	aboveSeekParity(t, db, db)
}

// TestAboveChunkedParity holds the seek paths to the plain loop on a list
// long enough that the scan handlers read several chunks, on RAM and on
// stripe lists whose stripes do not align with the chunks, and holds a
// phase-1 prefix longer than one chunk, with the scan that resumes
// after it, to the plain loop too.
func TestAboveChunkedParity(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 3*sortedChunk + 100, M: 1, Seed: 5})
	ref, err := NewOwner(plainBacked(t, db), 0)
	if err != nil {
		t.Fatal(err)
	}
	mid := db.List(0).At(db.N() / 2).Score
	for _, seek := range []*list.Database{db, stripeBacked(t, db)} {
		aboveSeekParity(t, db, seek)
		fast, err := NewOwner(seek, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []*Owner{ref, fast} {
			if err := o.Open("prefix", bestpos.BitArrayKind); err != nil {
				t.Fatal(err)
			}
		}
		for j, req := range []Request{TopKReq{K: sortedChunk + 7}, AboveReq{T: mid}, AboveReq{T: -1}} {
			want, werr := ref.Handle("prefix", req)
			got, gerr := fast.Handle("prefix", req)
			if werr != nil || gerr != nil {
				t.Fatalf("req %d: plain %v, seek %v", j, werr, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("req %d (%#v): seek and plain responses diverge", j, req)
			}
		}
		for _, o := range []*Owner{ref, fast} {
			st, err := o.SessionStats("prefix")
			if err != nil {
				t.Fatal(err)
			}
			if st.Accesses != (access.Counts{Sorted: int64(db.N())}) || st.Depth != db.N() {
				t.Fatalf("after the prefix and a full scan: accesses %v, depth %d; want %d sorted, depth %d",
					st.Accesses, st.Depth, db.N(), db.N())
			}
		}
	}
}

// aboveSeekParity runs the above-scan scenarios against an owner over
// seek, a seek-capable copy of the one-list db, and a reference owner
// over a plain-loop copy, and requires identical responses.
func aboveSeekParity(t *testing.T, db, seek *list.Database) {
	t.Helper()
	if _, ok := seek.List(0).(scoreSeeker); !ok {
		t.Fatal("list under test does not implement SeekScore")
	}
	ref, err := NewOwner(plainBacked(t, db), 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewOwner(seek, 0)
	if err != nil {
		t.Fatal(err)
	}

	n := db.N()
	top := db.List(0).At(1).Score
	mid := db.List(0).At(n / 2).Score
	scenarios := []struct {
		name string
		reqs []Request
	}{
		{"full-scan", []Request{AboveReq{T: -1}}},
		{"nothing-above", []Request{AboveReq{T: top + 1}}},
		{"nothing-above-twice", []Request{AboveReq{T: top + 1}, AboveReq{T: top + 1}}},
		{"descending-thresholds", []Request{AboveReq{T: mid}, AboveReq{T: mid / 2}, AboveReq{T: 0}}},
		{"ascending-thresholds", []Request{AboveReq{T: mid}, AboveReq{T: top}, AboveReq{T: mid}}},
		{"after-sorted-reads", []Request{
			SortedReq{Pos: 1}, SortedReq{Pos: 2}, SortedReq{Pos: 3},
			AboveReq{T: mid}, AboveReq{T: top + 1}, AboveReq{T: -1},
		}},
		{"threshold-at-last-score", []Request{AboveReq{T: db.List(0).At(n).Score}}},
		{"threshold-at-first-score", []Request{AboveReq{T: top}}},
	}
	for i, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sid := fmt.Sprintf("parity-%d", i)
			for _, o := range []*Owner{ref, fast} {
				if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
					t.Fatal(err)
				}
			}
			for j, req := range sc.reqs {
				want, werr := ref.Handle(sid, req)
				got, gerr := fast.Handle(sid, req)
				if werr != nil || gerr != nil {
					t.Fatalf("req %d: plain %v, seek %v", j, werr, gerr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("req %d (%#v): responses diverge:\n seek  %#v\n plain %#v", j, req, got, want)
				}
			}
		})
	}
}

// plainBacked serves db's first list through a *list.Mutable, which has
// no SeekScore, so its owner runs the plain positional above-scan loop.
func plainBacked(t *testing.T, db *list.Database) *list.Database {
	t.Helper()
	mut, err := list.MutableFromReader(db.List(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := list.Reader(mut).(scoreSeeker); ok {
		t.Fatal("mutable list implements SeekScore; no plain loop to compare against")
	}
	plain, err := list.NewReaderDatabase(mut)
	if err != nil {
		t.Fatal(err)
	}
	return plain
}

// stripeBacked serves db's lists from an in-memory stripe file with
// small stripes, whose lists take the SeekScore fast path of the above
// scan.
func stripeBacked(t *testing.T, db *list.Database) *list.Database {
	t.Helper()
	raw, err := stripe.WriteBytes(db, stripe.WriteOptions{StripeCap: 16, PosPageCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := stripe.OpenReader(bytes.NewReader(raw), int64(len(raw)), stripe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	disk, err := sdb.Database()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := disk.List(0).(scoreSeeker); !ok {
		t.Fatal("stripe list does not implement SeekScore; fast path untested")
	}
	return disk
}

// TestReceiptsSumToSessionStats: whatever the request kinds, the
// receipts an owner returns must add up to the session's own tally —
// accesses summed, depth and best position as of the last exchange, and
// the seen positions exactly the tracker's — on plain-loop mutable
// lists and on seek-capable RAM and stripe lists alike. The pinned
// totals hold the above-scan charging rule: the read that stops a scan
// below T is charged, a scan that runs off the end charges no extra
// read, and a scan of an exhausted list charges nothing; an empty probe
// charges nothing either.
func TestReceiptsSumToSessionStats(t *testing.T) {
	const n = 20
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: n, M: 1, Seed: 5})
	l := db.List(0)
	allProbes := make([]Request, n)
	for i := range allProbes {
		allProbes[i] = ProbeReq{}
	}
	cases := []struct {
		name        string
		reqs        []Request
		want        access.Counts
		depth, best int
	}{
		{"above-stops-below-T", []Request{TopKReq{K: 3}, AboveReq{T: l.At(10).Score}},
			access.Counts{Sorted: 3 + 8}, 11, 0},
		{"above-runs-off-end", []Request{TopKReq{K: 3}, AboveReq{T: -1}},
			access.Counts{Sorted: n}, n, 0},
		{"above-on-exhausted-list", []Request{AboveReq{T: -1}, AboveReq{T: -1}},
			access.Counts{Sorted: n}, n, 0},
		{"empty-probe", []Request{BatchReq{Reqs: allProbes}, ProbeReq{}},
			access.Counts{Direct: n}, 0, n},
		{"mixed-batch", []Request{BatchReq{Reqs: []Request{
			SortedReq{Pos: 1},
			LookupReq{Item: l.At(5).Item, WantPos: true},
			MarkReq{Item: l.At(2).Item},
			ProbeReq{},
			FetchReq{Items: []list.ItemID{l.At(7).Item, l.At(9).Item}},
			TopKReq{K: 2},
			AboveReq{T: l.At(5).Score},
		}}}, access.Counts{Sorted: 1 + 2 + 4, Random: 1 + 1 + 2, Direct: 1}, 6, 2},
	}
	for _, backing := range []struct {
		name string
		db   *list.Database
	}{{"plain", plainBacked(t, db)}, {"ram", db}, {"stripe", stripeBacked(t, db)}} {
		o, err := NewOwner(backing.db, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			t.Run(backing.name+"/"+c.name, func(t *testing.T) {
				sid := c.name
				if err := o.Open(sid, bestpos.BitArrayKind); err != nil {
					t.Fatal(err)
				}
				var sum access.Counts
				var last Receipt
				seen := make([]bool, n+1)
				for j, req := range c.reqs {
					_, rc, err := o.exchange(context.Background(), sid, 0, req)
					if err != nil {
						t.Fatalf("req %d: %v", j, err)
					}
					sum = sum.Add(rc.Accesses)
					for _, p := range rc.Seen {
						seen[p] = true
					}
					last = rc
				}
				st, err := o.SessionStats(sid)
				if err != nil {
					t.Fatal(err)
				}
				if sum != st.Accesses || last.Depth != st.Depth || last.Best != st.Best {
					t.Errorf("receipts sum to %v depth %d best %d; session has %v depth %d best %d",
						sum, last.Depth, last.Best, st.Accesses, st.Depth, st.Best)
				}
				if sum != c.want || last.Depth != c.depth || last.Best != c.best {
					t.Errorf("receipts sum to %v depth %d best %d; want %v depth %d best %d",
						sum, last.Depth, last.Best, c.want, c.depth, c.best)
				}
				if tracked := trackedSeen(t, o, sid); !reflect.DeepEqual(seen, tracked) {
					t.Errorf("receipts marked %v seen; tracker holds %v", seen, tracked)
				}
			})
		}
	}
}

// trackedSeen reads which positions a session's tracker holds seen,
// indexed 1..n.
func trackedSeen(t *testing.T, o *Owner, sid string) []bool {
	t.Helper()
	s, err := o.session(sid)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]bool, o.n+1)
	for p := 1; p <= o.n; p++ {
		out[p] = s.tr.Seen(p)
	}
	return out
}

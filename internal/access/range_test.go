package access

import (
	"bytes"
	"reflect"
	"testing"

	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/store/stripe"
)

// rangeDB serves the same sorted list three ways: a *list.List and a
// stripe-backed list, which copy ranges in bulk, and a *list.Mutable,
// which SortedRange reads entry by entry.
func rangeDB(t *testing.T) *list.Database {
	t.Helper()
	src := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 600, M: 1, Seed: 3})
	ram := src.List(0)
	mut, err := list.MutableFromReader(ram)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := stripe.WriteBytes(src, stripe.WriteOptions{StripeCap: 50, PosPageCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := stripe.OpenReader(bytes.NewReader(raw), int64(len(raw)), stripe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	db, err := list.NewReaderDatabase(ram, mut, sdb.List(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.List(1).(rangeReader); ok {
		t.Fatal("the mutable list copies ranges; the per-entry fallback goes untested")
	}
	return db
}

// TestSortedRangeMatchesSorted: SortedRange over any list returns the
// entries, counts, trace records and per-position audit that the same
// positions read one Sorted call at a time give — ranges overlapping
// included, so the audit sees positions read more than once.
func TestSortedRangeMatchesSorted(t *testing.T) {
	db := rangeDB(t)
	ranges := [][2]int{{1, 1}, {1, 600}, {49, 51}, {100, 349}, {600, 600}, {300, 300}, {2, 75}}
	byRange, byEntry := NewAuditedProbe(db), NewAuditedProbe(db)
	byRange.EnableTrace()
	byEntry.EnableTrace()
	for i := 0; i < db.M(); i++ {
		for _, rg := range ranges {
			prefix := []list.Entry{{Item: 5, Score: 1}}
			got := byRange.SortedRange(i, rg[0], rg[1], append([]list.Entry(nil), prefix...))
			want := append([]list.Entry(nil), prefix...)
			for p := rg[0]; p <= rg[1]; p++ {
				want = append(want, byEntry.Sorted(i, p))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("list %d SortedRange(%d, %d) returns other entries than Sorted", i, rg[0], rg[1])
			}
		}
	}
	if got, want := byRange.Counts(), byEntry.Counts(); got != want {
		t.Fatalf("counts %v, want %v", got, want)
	}
	if got, want := byRange.Trace(), byEntry.Trace(); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace of %d records differs from the per-entry trace of %d", len(got), len(want))
	}
	for i := 0; i < db.M(); i++ {
		for p := 1; p <= db.N(); p++ {
			if got, want := byRange.PositionAccesses(i, p), byEntry.PositionAccesses(i, p); got != want {
				t.Fatalf("list %d position %d audited %d times, want %d", i, p, got, want)
			}
		}
	}
	if byRange.AssertSingleAccess() == nil || byRange.MaxPositionAccesses() != byEntry.MaxPositionAccesses() {
		t.Fatal("overlapping ranges must show in the audit as repeated accesses")
	}

	// An unaudited, untraced probe charges the same counts.
	plain := NewProbe(db)
	for i := 0; i < db.M(); i++ {
		for _, rg := range ranges {
			plain.SortedRange(i, rg[0], rg[1], nil)
		}
	}
	if got, want := plain.Counts(), byEntry.Counts(); got != want {
		t.Fatalf("plain probe counts %v, want %v", got, want)
	}
}

// TestSortedRangeRejectsEmpty: an empty range is a caller error, not a
// zero-cost read.
func TestSortedRangeRejectsEmpty(t *testing.T) {
	pr := NewProbe(testDB(t))
	defer func() {
		if recover() == nil {
			t.Fatal("SortedRange(0, 3, 2) did not panic")
		}
		if got := pr.Counts(); got != (Counts{}) {
			t.Fatalf("a rejected range charged %v", got)
		}
	}()
	pr.SortedRange(0, 3, 2, nil)
}

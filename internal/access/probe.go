package access

import (
	"fmt"

	"topk/internal/list"
)

// Probe is the only gateway through which the algorithms in internal/core
// may touch a database. Every read is charged to a Counts tally, so the
// paper's cost metrics fall directly out of running an algorithm.
//
// The probe reads lists through the list.Reader seam, so the database may
// be memory-resident, disk-backed (internal/store/stripe), or a mix — the
// charge per access is identical whatever medium serves the entry, which
// is what keeps accounting bit-identical between RAM and disk deployments.
//
// A Probe is single-goroutine state (one query execution); create one per
// run.
type Probe struct {
	db     *list.Database
	counts Counts

	// audit[i][p-1] counts accesses of any mode to position p of list i.
	// Enabled only when NewAuditedProbe is used; used by tests to check
	// BPA2's Theorem 5 ("no position is accessed more than once").
	audit [][]int32

	// trace, when enabled, records every access in order.
	trace   []Record
	tracing bool
}

// Record is one logged list access (see Probe.EnableTrace).
type Record struct {
	Mode Mode
	List int
	Pos  int
	Item list.ItemID
}

// NewProbe returns a probe over db with zeroed counters.
func NewProbe(db *list.Database) *Probe {
	return &Probe{db: db}
}

// NewAuditedProbe returns a probe that additionally records a per-position
// access count. The audit costs O(m·n) memory; meant for tests.
func NewAuditedProbe(db *list.Database) *Probe {
	p := NewProbe(db)
	p.audit = make([][]int32, db.M())
	for i := range p.audit {
		p.audit[i] = make([]int32, db.N())
	}
	return p
}

// DB returns the probed database.
func (p *Probe) DB() *list.Database { return p.db }

// Counts returns the tally so far.
func (p *Probe) Counts() Counts { return p.counts }

// EnableTrace makes the probe log every access in order; retrieve the
// log with Trace. Tracing allocates per access — tests and explainers
// only.
func (p *Probe) EnableTrace() { p.tracing = true }

// Trace returns the ordered access log (nil unless EnableTrace was
// called before the run).
func (p *Probe) Trace() []Record {
	cp := make([]Record, len(p.trace))
	copy(cp, p.trace)
	return cp
}

// Sorted performs a sorted access: it reads position pos of list i, where
// pos is the algorithm's current sequential depth in that list.
func (p *Probe) Sorted(i, pos int) list.Entry {
	p.counts.Sorted++
	e := p.db.List(i).At(pos)
	p.note(SortedAccess, i, pos, e.Item)
	return e
}

// rangeReader is the optional bulk form of list.Reader.At: *list.List
// copies a range out of its entries, and stripe-backed lists enter the
// cache once per stripe instead of once per entry.
type rangeReader interface {
	AppendRange(dst []list.Entry, from, to int) []list.Entry
}

// SortedRange performs the sorted accesses to positions from..to
// (inclusive, from <= to) of list i, appending the entries to dst in
// position order. It charges to-from+1 sorted accesses and notes every
// position for the audit and the trace, exactly as that many Sorted
// calls would; the paper charges one sorted access per entry read,
// whether or not the medium fetches them one at a time. Lists with
// AppendRange serve the range in one call; any other list is read entry
// by entry.
func (p *Probe) SortedRange(i, from, to int, dst []list.Entry) []list.Entry {
	if from > to {
		panic(fmt.Sprintf("access: empty sorted range [%d,%d]", from, to))
	}
	p.counts.Sorted += int64(to - from + 1)
	start := len(dst)
	l := p.db.List(i)
	if rr, ok := l.(rangeReader); ok {
		dst = rr.AppendRange(dst, from, to)
	} else {
		for pos := from; pos <= to; pos++ {
			dst = append(dst, l.At(pos))
		}
	}
	if p.audit != nil || p.tracing {
		for j, e := range dst[start:] {
			p.note(SortedAccess, i, from+j, e.Item)
		}
	}
	return dst
}

// Random performs a random access: it looks up item d in list i and
// returns its local score and its 1-based position. TA uses only the
// score; BPA also records the position (Section 4.1 step 1).
func (p *Probe) Random(i int, d list.ItemID) (score float64, pos int) {
	p.counts.Random++
	l := p.db.List(i)
	pos = l.PositionOf(d)
	p.note(RandomAccess, i, pos, d)
	return l.At(pos).Score, pos
}

// Direct performs a direct access: it reads the entry at position pos of
// list i (Section 5.1; BPA2 reads position bp+1).
func (p *Probe) Direct(i, pos int) list.Entry {
	p.counts.Direct++
	e := p.db.List(i).At(pos)
	p.note(DirectAccess, i, pos, e.Item)
	return e
}

func (p *Probe) note(mode Mode, i, pos int, d list.ItemID) {
	if p.audit != nil {
		p.audit[i][pos-1]++
	}
	if p.tracing {
		p.trace = append(p.trace, Record{Mode: mode, List: i, Pos: pos, Item: d})
	}
}

// PositionAccesses returns how many times position pos of list i was
// accessed (any mode). It panics unless the probe was created with
// NewAuditedProbe.
func (p *Probe) PositionAccesses(i, pos int) int {
	if p.audit == nil {
		panic("access: PositionAccesses requires NewAuditedProbe")
	}
	return int(p.audit[i][pos-1])
}

// MaxPositionAccesses returns the largest per-position access count over
// the whole database. For BPA2 this must be <= 1 (Theorem 5).
func (p *Probe) MaxPositionAccesses() int {
	if p.audit == nil {
		panic("access: MaxPositionAccesses requires NewAuditedProbe")
	}
	max := 0
	for i := range p.audit {
		for _, c := range p.audit[i] {
			if int(c) > max {
				max = int(c)
			}
		}
	}
	return max
}

// AssertSingleAccess returns an error naming the first position that was
// accessed more than once, or nil if every position was accessed at most
// once.
func (p *Probe) AssertSingleAccess() error {
	if p.audit == nil {
		panic("access: AssertSingleAccess requires NewAuditedProbe")
	}
	for i := range p.audit {
		for j, c := range p.audit[i] {
			if c > 1 {
				return fmt.Errorf("access: position %d of list %d accessed %d times", j+1, i, c)
			}
		}
	}
	return nil
}

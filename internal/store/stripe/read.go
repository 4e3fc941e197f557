package stripe

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"topk/internal/list"
)

// Options configures an open stripe database.
type Options struct {
	// CacheBytes is the stripe-cache budget over decoded block payloads;
	// 0 means DefaultCacheBytes. The accounted resident bytes never
	// exceed it.
	CacheBytes int64
}

// DB is an open stripe file: the resident footer index plus the LRU
// block cache. All methods are safe for concurrent use; the lists it
// hands out serve reads with pread, so N sessions of one owner share one
// descriptor without seeking over each other.
type DB struct {
	r      io.ReaderAt
	closer io.Closer // nil when opened over a caller-owned ReaderAt
	ft     footer
	cache  *cache
	lists  []*List
}

// Open opens the stripe file at path, reading only its trailer and
// footer — this is what makes an owner restart warm: no data block is
// touched until a query asks for it.
func Open(path string, opts Options) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stripe: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("stripe: stat: %w", err)
	}
	db, err := OpenReader(f, st.Size(), opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	db.closer = f
	return db, nil
}

// OpenReader opens a stripe database over any io.ReaderAt of the given
// size (Open wraps it over an *os.File). The reader must stay valid for
// the life of the DB; Close does not close it.
func OpenReader(r io.ReaderAt, size int64, opts Options) (*DB, error) {
	ft, err := readFooter(r, size)
	if err != nil {
		return nil, err
	}
	db := &DB{r: r, ft: *ft, cache: newCache(opts.CacheBytes)}
	db.lists = make([]*List, ft.m)
	for i := range db.lists {
		db.lists[i] = &List{db: db, idx: i}
	}
	return db, nil
}

// readFooter reads and validates the trailer and footer.
func readFooter(r io.ReaderAt, size int64) (*footer, error) {
	minSize := int64(len(magic)) + trailerLen
	if size < minSize {
		return nil, fmt.Errorf("stripe: file of %d bytes is too small", size)
	}
	var hdr [8]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("stripe: read magic: %w", err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("stripe: bad magic %q", hdr[:])
	}
	var tr [trailerLen]byte
	if _, err := r.ReadAt(tr[:], size-trailerLen); err != nil {
		return nil, fmt.Errorf("stripe: read trailer: %w", err)
	}
	if !equalBytes(tr[16:24], endMagic[:]) {
		return nil, fmt.Errorf("stripe: bad end magic %q (truncated or not a stripe file)", tr[16:24])
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	footerLen := int64(binary.LittleEndian.Uint32(tr[8:12]))
	wantCRC := binary.LittleEndian.Uint32(tr[12:16])
	if footerOff < int64(len(magic)) || footerOff+footerLen != size-trailerLen {
		return nil, fmt.Errorf("stripe: footer extent [%d,%d) does not meet the trailer at %d (truncated footer)",
			footerOff, footerOff+footerLen, size-trailerLen)
	}
	fb := make([]byte, footerLen)
	if _, err := r.ReadAt(fb, footerOff); err != nil {
		return nil, fmt.Errorf("stripe: read footer: %w", err)
	}
	if got := crc32.ChecksumIEEE(fb); got != wantCRC {
		return nil, fmt.Errorf("stripe: footer checksum mismatch: trailer %08x, computed %08x", wantCRC, got)
	}
	ft, err := decodeFooter(fb)
	if err != nil {
		return nil, err
	}
	if err := ft.validate(footerOff); err != nil {
		return nil, err
	}
	return ft, nil
}

// decodeFooter parses the footer bytes. Every count is checked against
// the expectation the dimensions imply before anything is allocated, so
// a corrupt footer cannot drive allocation beyond the file's own size.
func decodeFooter(b []byte) (*footer, error) {
	d := &decoder{b: b}
	if v := d.u32(); v != 1 {
		return nil, fmt.Errorf("stripe: unsupported format version %d", v)
	}
	ft := &footer{}
	ft.m = int(d.u32())
	ft.n = int(d.u64())
	ft.stripeCap = int(d.u32())
	ft.posPageCap = int(d.u32())
	if d.err != nil {
		return nil, fmt.Errorf("stripe: truncated footer header: %w", d.err)
	}
	if ft.m < 1 || ft.n < 1 || ft.m > maxDimension || ft.n > maxDimension ||
		ft.stripeCap < 1 || ft.stripeCap > maxDimension ||
		ft.posPageCap < 1 || ft.posPageCap > maxDimension {
		return nil, fmt.Errorf("stripe: implausible footer header m=%d n=%d stripeCap=%d posPageCap=%d",
			ft.m, ft.n, ft.stripeCap, ft.posPageCap)
	}
	wantStripes := numBlocks(ft.n, ft.stripeCap)
	wantPages := numBlocks(ft.n, ft.posPageCap)
	// Reject before allocating: the remaining footer bytes must hold
	// every index record the header promises.
	need := ft.m * (4 + wantStripes*40 + 4 + wantPages*20)
	if d.remaining() != need {
		return nil, fmt.Errorf("stripe: footer holds %d index bytes, want %d", d.remaining(), need)
	}
	ft.lists = make([]listIndex, ft.m)
	for i := range ft.lists {
		ns := int(d.u32())
		if ns != wantStripes {
			return nil, fmt.Errorf("stripe: list %d indexes %d stripes, want %d", i, ns, wantStripes)
		}
		stripes := make([]stripeInfo, ns)
		for s := range stripes {
			stripes[s] = stripeInfo{
				off:      int64(d.u64()),
				length:   int(d.u32()),
				firstPos: int(d.u64()),
				count:    int(d.u32()),
				maxScore: d.f64(),
				minScore: d.f64(),
			}
		}
		np := int(d.u32())
		if np != wantPages {
			return nil, fmt.Errorf("stripe: list %d indexes %d position pages, want %d", i, np, wantPages)
		}
		pages := make([]pageInfo, np)
		for p := range pages {
			pages[p] = pageInfo{
				off:       int64(d.u64()),
				length:    int(d.u32()),
				firstItem: int(d.u32()),
				count:     int(d.u32()),
			}
		}
		ft.lists[i] = listIndex{stripes: stripes, pages: pages}
	}
	if d.err != nil {
		return nil, fmt.Errorf("stripe: truncated footer: %w", d.err)
	}
	return ft, nil
}

// decoder is a bounds-checked little-endian reader over the footer.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) remaining() int { return len(d.b) - d.off }

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// M returns the number of lists.
func (db *DB) M() int { return db.ft.m }

// N returns the number of items per list.
func (db *DB) N() int { return db.ft.n }

// StripeCap returns the entries-per-stripe capacity of the file.
func (db *DB) StripeCap() int { return db.ft.stripeCap }

// List returns the i-th disk-backed list (0-based).
func (db *DB) List(i int) *List { return db.lists[i] }

// Database assembles every list of the file into a *list.Database, the
// drop-in replacement for a memory-resident database: probes, owners and
// all algorithms run over it unchanged.
func (db *DB) Database() (*list.Database, error) {
	rs := make([]list.Reader, len(db.lists))
	for i, l := range db.lists {
		rs[i] = l
	}
	return list.NewReaderDatabase(rs...)
}

// CacheStats snapshots the stripe cache's tallies. Reads served from a
// list hint are folded in first, so Hits is exact when read.
func (db *DB) CacheStats() CacheStats {
	for _, l := range db.lists {
		l.flushHits()
	}
	return db.cache.stats()
}

// Close releases the cache and, when the DB was opened from a path, the
// file descriptor. Lists handed out must not be used afterwards.
func (db *DB) Close() error {
	db.cache.drop()
	if db.closer != nil {
		return db.closer.Close()
	}
	return nil
}

// blockRef names one data block in error messages. It is formatted only
// when an error is returned, so a load that succeeds builds no label.
type blockRef struct {
	list, idx int
	page      bool // an id→position page; an entry stripe otherwise
}

func (r blockRef) String() string {
	if r.page {
		return fmt.Sprintf("list %d position page %d", r.list, r.idx)
	}
	return fmt.Sprintf("list %d stripe %d", r.list, r.idx)
}

// blockBufs recycles readBlock's raw buffers (*[]byte): a payload is
// decoded into its own slice and then dropped, so the raw bytes need not
// outlive the load.
var blockBufs sync.Pool

// readBlock reads and CRC-checks one data block into a pooled buffer. It
// returns the payload (the bytes before the trailing CRC) and the buffer,
// which the caller hands back to blockBufs once the payload is decoded.
func (db *DB) readBlock(off int64, length int, what blockRef) ([]byte, *[]byte, error) {
	bp, _ := blockBufs.Get().(*[]byte)
	if bp == nil || cap(*bp) < length {
		b := make([]byte, length)
		bp = &b
	}
	buf := (*bp)[:length]
	if _, err := db.r.ReadAt(buf, off); err != nil {
		blockBufs.Put(bp)
		return nil, nil, fmt.Errorf("stripe: read %v: %w", what, err)
	}
	payload := buf[:length-4]
	want := binary.LittleEndian.Uint32(buf[length-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		blockBufs.Put(bp)
		return nil, nil, fmt.Errorf("stripe: %v checksum mismatch: file %08x, computed %08x", what, want, got)
	}
	return payload, bp, nil
}

// loadEntryStripe reads, checks and decodes one entry stripe, without
// touching the cache.
func (db *DB) loadEntryStripe(li, si int) ([]list.Entry, error) {
	count := db.ft.lists[li].stripes[si].count
	return db.appendEntryStripe(make([]list.Entry, 0, count), li, si, 0, count)
}

// appendEntryStripe reads and checks one entry stripe in full — CRC,
// count, item range, NaN, order and fences — and appends its entries at
// stripe offsets [lo,hi) to dst, without touching the cache. It is the
// one decoder of entry stripes: a miss decodes the whole stripe into a
// block, and a range read the cache cannot hold decodes straight into
// its destination.
func (db *DB) appendEntryStripe(dst []list.Entry, li, si, lo, hi int) ([]list.Entry, error) {
	st := db.ft.lists[li].stripes[si]
	what := blockRef{list: li, idx: si}
	payload, bp, err := db.readBlock(st.off, st.length, what)
	if err != nil {
		return dst, err
	}
	defer blockBufs.Put(bp)
	if got := int(binary.LittleEndian.Uint32(payload[:4])); got != st.count {
		return dst, fmt.Errorf("stripe: %v holds %d entries, footer says %d", what, got, st.count)
	}
	items := payload[4 : 4+4*st.count]
	scores := payload[4+4*st.count:]
	first := math.Float64frombits(binary.LittleEndian.Uint64(scores))
	prev := math.Inf(1)
	for j := 0; j < st.count; j++ {
		item := int32(binary.LittleEndian.Uint32(items[4*j:]))
		sc := math.Float64frombits(binary.LittleEndian.Uint64(scores[8*j:]))
		if item < 0 || int(item) >= db.ft.n {
			return dst, fmt.Errorf("stripe: %v position %d: item %d out of range [0,%d)", what, st.firstPos+j, item, db.ft.n)
		}
		if math.IsNaN(sc) {
			return dst, fmt.Errorf("stripe: %v position %d: NaN score", what, st.firstPos+j)
		}
		if sc > prev {
			return dst, fmt.Errorf("stripe: %v position %d: scores out of order (%v > %v)", what, st.firstPos+j, sc, prev)
		}
		prev = sc
		if lo <= j && j < hi {
			dst = append(dst, list.Entry{Item: list.ItemID(item), Score: sc})
		}
	}
	// The fences are the index every fence-guided read trusts; a stripe
	// that disagrees with its own footer record is corrupt.
	if first != st.maxScore || prev != st.minScore {
		return dst, fmt.Errorf("stripe: %v scores [%v,%v] disagree with its fences [%v,%v]",
			what, prev, first, st.minScore, st.maxScore)
	}
	return dst, nil
}

// loadPosPage reads, checks and decodes one id→position page, without
// touching the cache.
func (db *DB) loadPosPage(li, pi int) ([]int32, error) {
	pg := db.ft.lists[li].pages[pi]
	what := blockRef{list: li, idx: pi, page: true}
	payload, bp, err := db.readBlock(pg.off, pg.length, what)
	if err != nil {
		return nil, err
	}
	defer blockBufs.Put(bp)
	if got := int(binary.LittleEndian.Uint32(payload[:4])); got != pg.count {
		return nil, fmt.Errorf("stripe: %v holds %d items, footer says %d", what, got, pg.count)
	}
	out := make([]int32, pg.count)
	for j := range out {
		p := int32(binary.LittleEndian.Uint32(payload[4+4*j:]))
		if p < 1 || int(p) > db.ft.n {
			return nil, fmt.Errorf("stripe: %v item %d: position %d out of range [1,%d]", what, pg.firstItem+j, p, db.ft.n)
		}
		out[j] = p
	}
	return out, nil
}

// entryBytes is the accounted cache size of one decoded entry.
const entryBytes = 16

// entryStripe returns one entry stripe of l through the cache, hinting
// it to l when resident; it panics on IO errors or corruption (see the
// package comment: reads after a successful Open are fail-stop).
func (db *DB) entryStripe(l *List, si int) *block {
	v, err := db.cache.get(ckey{kind: kindEntries, list: int32(l.idx), idx: int32(si)}, &l.hint,
		func() (any, int64, error) {
			ents, err := db.loadEntryStripe(l.idx, si)
			return &block{idx: si, ents: ents}, entryBytes * int64(len(ents)), err
		})
	if err != nil {
		panic(err)
	}
	return v.(*block)
}

// posPage returns one id→position page through the cache; fail-stop like
// entryStripe.
func (db *DB) posPage(li, pi int) []int32 {
	v, err := db.cache.get(ckey{kind: kindPositions, list: int32(li), idx: int32(pi)}, nil,
		func() (any, int64, error) {
			ps, err := db.loadPosPage(li, pi)
			return ps, int64(len(ps)) * 4, err
		})
	if err != nil {
		panic(err)
	}
	return v.([]int32)
}

// Verify streams every block of the file — bypassing the cache — and
// checks full structural integrity: block checksums, in-stripe order and
// fence agreement (as on every load), plus the whole-list invariants a
// lazy read cannot see: each item appears exactly once across the
// stripes, and every position page agrees with where the stripes
// actually placed each item. It allocates 4 bytes per item transiently.
func (db *DB) Verify() error {
	posOf := make([]int32, db.ft.n)
	for li := range db.ft.lists {
		for d := range posOf {
			posOf[d] = 0
		}
		for si := range db.ft.lists[li].stripes {
			ents, err := db.loadEntryStripe(li, si)
			if err != nil {
				return err
			}
			firstPos := db.ft.lists[li].stripes[si].firstPos
			for j, e := range ents {
				if posOf[e.Item] != 0 {
					return fmt.Errorf("stripe: list %d: item %d appears at positions %d and %d",
						li, e.Item, posOf[e.Item], firstPos+j)
				}
				posOf[e.Item] = int32(firstPos + j)
			}
		}
		for pi := range db.ft.lists[li].pages {
			ps, err := db.loadPosPage(li, pi)
			if err != nil {
				return err
			}
			firstItem := db.ft.lists[li].pages[pi].firstItem
			for j, p := range ps {
				if posOf[firstItem+j] != p {
					return fmt.Errorf("stripe: list %d: position page says item %d is at %d, stripes place it at %d",
						li, firstItem+j, p, posOf[firstItem+j])
				}
			}
		}
	}
	return nil
}

// List is one disk-backed sorted list: the stripe store's list.Reader.
// All methods are safe for concurrent use and panic on out-of-range
// arguments, exactly like *list.List.
//
// hint is the last entry stripe the cache returned for this list while
// resident; reads inside it skip the cache lock, map and LRU, so a scan
// enters the cache once per stripe instead of once per entry. Only the
// cache stores and clears it (see cache). hintHits counts the reads it
// served, a range read's entries included, since they were last folded
// into the cache's hit tally.
type List struct {
	db       *DB
	idx      int
	hint     atomic.Pointer[block]
	hintHits atomic.Int64
}

var _ list.Reader = (*List)(nil)

// Len returns n, the number of entries.
func (l *List) Len() int { return l.db.ft.n }

// At returns the entry at 1-based position p, loading (at most) the one
// stripe covering p.
func (l *List) At(p int) list.Entry {
	if p < 1 || p > l.db.ft.n {
		panic(fmt.Sprintf("stripe: position %d out of range [1,%d]", p, l.db.ft.n))
	}
	si := (p - 1) / l.db.ft.stripeCap
	return l.stripe(si).ents[(p-1)-si*l.db.ft.stripeCap]
}

// AppendRange appends the entries at 1-based positions from..to
// (inclusive) to dst and returns the extended slice, with the same
// panics as At. It enters each stripe the range covers once and copies
// the covered entries out, counting one cache hit or miss per entry
// read, as an At loop would:
//
//   - a hinted or resident stripe is served from the cache, and every
//     entry read from it is a hit;
//   - a stripe that is neither is loaded through the cache, a miss and
//     then hint hits, when it fits the budget without an eviction;
//   - any other stripe is read, checked in full and decoded straight
//     into dst. It is not admitted, evicts nothing and is never hinted,
//     and every entry read from it is a miss. A scan longer than the
//     cache thus leaves the resident blocks of point reads in place
//     instead of cycling every stripe through the LRU.
func (l *List) AppendRange(dst []list.Entry, from, to int) []list.Entry {
	n, sc := l.db.ft.n, l.db.ft.stripeCap
	if from < 1 || from > to || to > n {
		panic(fmt.Sprintf("stripe: range [%d,%d] out of range [1,%d]", from, to, n))
	}
	for from <= to {
		si := (from - 1) / sc
		lo, hi := from-1-si*sc, min(to-si*sc, sc)
		from += hi - lo
		if b := l.hint.Load(); b != nil && b.idx == si {
			dst = append(dst, b.ents[lo:hi]...)
			l.hintHits.Add(int64(hi - lo))
			continue
		}
		l.flushHits()
		size := entryBytes * int64(l.db.ft.lists[l.idx].stripes[si].count)
		v, fits := l.db.cache.peek(ckey{kind: kindEntries, list: int32(l.idx), idx: int32(si)}, &l.hint, size)
		if v == nil && !fits {
			var err error
			if dst, err = l.db.appendEntryStripe(dst, l.idx, si, lo, hi); err != nil {
				panic(err)
			}
			l.db.cache.addMisses(int64(hi - lo))
			continue
		}
		b, _ := v.(*block)
		if b == nil {
			b = l.db.entryStripe(l, si)
		}
		dst = append(dst, b.ents[lo:hi]...)
		// Entering the stripe was the first read's hit or miss; the
		// block is resident now, so the rest are hits.
		l.hintHits.Add(int64(hi - lo - 1))
	}
	return dst
}

// stripe returns entry stripe si: from the hint when it covers si (a
// cache hit all the same, counted per read), through the cache
// otherwise.
func (l *List) stripe(si int) *block {
	if b := l.hint.Load(); b != nil && b.idx == si {
		l.hintHits.Add(1)
		return b
	}
	l.flushHits()
	return l.db.entryStripe(l, si)
}

// flushHits folds the reads the hint served into the cache's tallies.
func (l *List) flushHits() {
	if n := l.hintHits.Swap(0); n > 0 {
		l.db.cache.addHits(n)
	}
}

// PositionOf returns the 1-based position of item d, loading (at most)
// the one id→position page covering d.
func (l *List) PositionOf(d list.ItemID) int {
	if d < 0 || int(d) >= l.db.ft.n {
		panic(fmt.Sprintf("stripe: item %d out of range [0,%d)", d, l.db.ft.n))
	}
	pi := int(d) / l.db.ft.posPageCap
	ps := l.db.posPage(l.idx, pi)
	return int(ps[int(d)-pi*l.db.ft.posPageCap])
}

// ScoreOf returns the local score of item d: a position-page read plus a
// stripe read, the disk shape of one random access.
func (l *List) ScoreOf(d list.ItemID) float64 {
	return l.At(l.PositionOf(d)).Score
}

// SeekScore returns the first 1-based position whose score is strictly
// below t, or Len()+1 when every score is >= t. It binary-searches the
// footer's score fences to pick the single stripe that can hold the
// boundary, so a threshold seek over an arbitrarily long list costs at
// most one stripe load — this is what the fences buy sorted scans.
func (l *List) SeekScore(t float64) int {
	stripes := l.db.ft.lists[l.idx].stripes
	// First stripe whose minimum fence drops below t; earlier stripes
	// are entirely >= t.
	si := sort.Search(len(stripes), func(i int) bool { return stripes[i].minScore < t })
	if si == len(stripes) {
		return l.db.ft.n + 1
	}
	st := stripes[si]
	if st.maxScore < t {
		// The whole stripe is below t: the boundary is its first
		// position. No data block touched.
		return st.firstPos
	}
	ents := l.stripe(si).ents
	j := sort.Search(len(ents), func(i int) bool { return ents[i].Score < t })
	return st.firstPos + j
}

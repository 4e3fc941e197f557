// Package stripe is the disk-backed list store: it persists a sorted-list
// database as fixed-capacity columnar stripes and serves the list.Reader
// surface straight from the file through a bounded LRU cache, so every
// centralized algorithm and every distributed protocol runs unchanged —
// with bit-identical answers and access accounting — over lists far
// bigger than RAM, and an owner process restarts warm by reopening the
// file instead of reloading it.
//
// # File format (version 1)
//
// All integers are little-endian; scores travel as raw IEEE-754 bits so
// they round-trip bit-identically.
//
//	magic "TOPKSTP1"                                    8 bytes
//	data blocks, back to back, per list:
//	  entry stripes   u32 count | count×u32 item |
//	                  count×u64 score bits | u32 CRC-32 (IEEE)
//	  position pages  u32 count | count×u32 position (1-based) |
//	                  u32 CRC-32 (IEEE)
//	footer (indexed by the trailer):
//	  u32 version=1 | u32 m | u64 n | u32 stripeCap | u32 posPageCap
//	  per list:
//	    u32 numStripes, then per stripe:
//	      u64 offset | u32 length | u64 firstPos | u32 count |
//	      f64 maxScore | f64 minScore        (the score fences)
//	    u32 numPosPages, then per page:
//	      u64 offset | u32 length | u32 firstItem | u32 count
//	trailer (fixed, last 24 bytes of the file):
//	  u64 footerOffset | u32 footerLength | u32 CRC-32 of the footer |
//	  end magic "TOPKSTPF"
//
// Each list is cut into stripes of exactly stripeCap entries (the last
// stripe holds the remainder), sorted by position — the columnar layout
// of smda's stripe model. The footer carries, per stripe, its position
// range and its score fences: the first (maximum) and last (minimum)
// score inside the stripe. Because the list is sorted, fences are
// non-overlapping and non-increasing across stripes, which is validated
// at open time; a sorted scan or a threshold seek (List.SeekScore)
// binary-searches the fences and touches exactly one stripe on disk
// instead of deserializing the list. Random access goes through the
// id→position pages — pos[item] in fixed-capacity pages — then lands in
// the one stripe covering that position: the position/id dual-keying of
// herald's column families, flattened into one file.
//
// # Reading and the cache
//
// Open reads only the trailer and footer (O(stripes) bytes, resident for
// the life of the DB); every data block is fetched on demand with pread
// (io.ReaderAt) into an LRU cache with a configurable byte budget over
// the decoded payloads. The resident total never exceeds the budget — a
// block larger than the whole budget is served uncached — and cache
// traffic is exported through internal/obs (hits, misses, evictions,
// resident bytes) next to the transport catalogue. Point reads (At,
// PositionOf, ScoreOf) always go through the LRU; range reads admit only
// what fits without an eviction (see AppendRange below).
//
// Each List keeps a hint: an atomic pointer to the last entry stripe the
// cache returned for it. A read inside the hinted stripe takes no lock
// and touches neither the map nor the LRU, so a sorted scan pays the
// cache once per stripe instead of once per entry. The cache stores and
// clears hints under its own lock, together with the admission or
// eviction they follow: only an admitted block is hinted (a block served
// uncached never is), and evicting a block or closing the DB clears any
// hint pointing at it, so the budget stays a hard ceiling on what the
// store keeps alive. A hinted read is still a cache hit, counted per
// entry read: each list tallies its hinted reads and folds them into the
// hit count whenever it re-enters the cache and whenever CacheStats is
// read, so Hits is exact when read. LRU recency is set when a read
// enters a stripe, not by every read inside it.
//
// AppendRange reads a run of positions in bulk, entering each stripe the
// range covers once and counting one hit or miss per entry read. A
// stripe that is hinted or resident is copied out of the cache, and one
// that is neither is admitted when it fits the budget without an
// eviction. Any other stripe — every stripe of a scan longer than a full
// cache — is read, checked in full and decoded straight into the
// caller's slice: it is not admitted, evicts nothing and is never
// hinted, and each of its entries counts as a miss. A scan thus never
// cycles the cache's resident blocks out, and allocates no decoded
// block it would drop again. While the budget holds everything read, the
// tallies are exactly those of the same positions read one At at a time.
//
// Every block is CRC-checked and structurally validated as it is loaded
// (in-stripe score order, fence agreement, item and position ranges), so
// corruption surfaces at the first read that touches it. The Reader
// surface has no error channel — like *list.List, out-of-range accesses
// are programming errors — so a block that fails to load or validate
// after a successful Open panics with a descriptive error: storage
// corruption under a serving owner is fail-stop by design. Verify streams
// the whole file (uncached) and reports corruption as an error instead;
// fuzzing and operators use it before trusting reads.
//
// # Accounting
//
// Nothing in this package touches access accounting: the paper's
// middleware model is agnostic to where the lists live, so owners and
// probes charge sorted/random/direct accesses exactly as over the
// memory-resident store, and the parity suites hold disk-backed runs
// bit-identical to in-memory ones on answers, Net and access counts.
package stripe

import (
	"fmt"
	"math"
)

// Format constants.
const (
	// DefaultStripeCap is the default number of entries per stripe:
	// 4096 entries decode to 64 KiB, small enough that a point read
	// wastes little and large enough that a scan amortizes the pread.
	DefaultStripeCap = 4096
	// DefaultPosPageCap is the default number of items per id→position
	// page (32 KiB decoded).
	DefaultPosPageCap = 8192
	// DefaultCacheBytes is the default stripe-cache budget: 64 MiB.
	DefaultCacheBytes = 64 << 20

	// maxDimension bounds m, n and the per-block capacities on load so a
	// corrupted footer cannot drive allocation (same bound as the binary
	// store).
	maxDimension = 1 << 28

	trailerLen = 24
)

var (
	magic    = [8]byte{'T', 'O', 'P', 'K', 'S', 'T', 'P', '1'}
	endMagic = [8]byte{'T', 'O', 'P', 'K', 'S', 'T', 'P', 'F'}
)

// stripeInfo is one entry stripe's footer record: where it lives, which
// positions it covers, and its score fences.
type stripeInfo struct {
	off      int64
	length   int
	firstPos int // 1-based
	count    int
	maxScore float64 // score at firstPos (fence high)
	minScore float64 // score at firstPos+count-1 (fence low)
}

// pageInfo is one id→position page's footer record.
type pageInfo struct {
	off       int64
	length    int
	firstItem int
	count     int
}

// listIndex is the footer's per-list index.
type listIndex struct {
	stripes []stripeInfo
	pages   []pageInfo
}

// footer is the parsed footer: dimensions, capacities and the per-list
// block indexes. It is the only part of the file resident for the life
// of a DB.
type footer struct {
	m, n       int
	stripeCap  int
	posPageCap int
	lists      []listIndex
}

// entryStripeLen returns the on-disk length of an entry stripe of count
// entries: u32 count + count×(u32 item + u64 score) + u32 CRC.
func entryStripeLen(count int) int { return 4 + 12*count + 4 }

// posPageLen returns the on-disk length of a position page of count
// items: u32 count + count×u32 position + u32 CRC.
func posPageLen(count int) int { return 4 + 4*count + 4 }

// blockCounts returns how many fixed-capacity blocks cover n items and
// the count of block i.
func blockCounts(n, capacity, i int) int {
	if c := n - i*capacity; c < capacity {
		return c
	}
	return capacity
}

func numBlocks(n, capacity int) int { return (n + capacity - 1) / capacity }

// validate checks the footer's internal consistency: plausible
// dimensions, complete and contiguous position coverage, in-bounds block
// extents, and ordered, non-overlapping score fences. dataEnd is the
// first byte past the data region (the footer offset).
func (ft *footer) validate(dataEnd int64) error {
	if ft.m < 1 || ft.n < 1 || ft.m > maxDimension || ft.n > maxDimension {
		return fmt.Errorf("stripe: implausible dimensions m=%d n=%d", ft.m, ft.n)
	}
	if ft.stripeCap < 1 || ft.stripeCap > maxDimension {
		return fmt.Errorf("stripe: implausible stripe capacity %d", ft.stripeCap)
	}
	if ft.posPageCap < 1 || ft.posPageCap > maxDimension {
		return fmt.Errorf("stripe: implausible position-page capacity %d", ft.posPageCap)
	}
	if len(ft.lists) != ft.m {
		return fmt.Errorf("stripe: footer indexes %d lists, want %d", len(ft.lists), ft.m)
	}
	checkExtent := func(off int64, length int) error {
		if off < int64(len(magic)) || length < 0 || off+int64(length) > dataEnd {
			return fmt.Errorf("block extent [%d,%d) outside data region [%d,%d)",
				off, off+int64(length), len(magic), dataEnd)
		}
		return nil
	}
	for i, li := range ft.lists {
		if got, want := len(li.stripes), numBlocks(ft.n, ft.stripeCap); got != want {
			return fmt.Errorf("stripe: list %d has %d stripes, want %d", i, got, want)
		}
		for s, st := range li.stripes {
			if st.count != blockCounts(ft.n, ft.stripeCap, s) {
				return fmt.Errorf("stripe: list %d stripe %d holds %d entries, want %d",
					i, s, st.count, blockCounts(ft.n, ft.stripeCap, s))
			}
			if st.firstPos != s*ft.stripeCap+1 {
				return fmt.Errorf("stripe: list %d stripe %d starts at position %d, want %d (positions out of order)",
					i, s, st.firstPos, s*ft.stripeCap+1)
			}
			if st.length != entryStripeLen(st.count) {
				return fmt.Errorf("stripe: list %d stripe %d is %d bytes, want %d",
					i, s, st.length, entryStripeLen(st.count))
			}
			if err := checkExtent(st.off, st.length); err != nil {
				return fmt.Errorf("stripe: list %d stripe %d: %w", i, s, err)
			}
			if math.IsNaN(st.maxScore) || math.IsNaN(st.minScore) || st.maxScore < st.minScore {
				return fmt.Errorf("stripe: list %d stripe %d has invalid fences [%v,%v]",
					i, s, st.minScore, st.maxScore)
			}
			if s > 0 && li.stripes[s-1].minScore < st.maxScore {
				return fmt.Errorf("stripe: list %d stripes %d and %d have overlapping score fences (%v < %v)",
					i, s-1, s, li.stripes[s-1].minScore, st.maxScore)
			}
		}
		if got, want := len(li.pages), numBlocks(ft.n, ft.posPageCap); got != want {
			return fmt.Errorf("stripe: list %d has %d position pages, want %d", i, got, want)
		}
		for p, pg := range li.pages {
			if pg.count != blockCounts(ft.n, ft.posPageCap, p) {
				return fmt.Errorf("stripe: list %d page %d holds %d items, want %d",
					i, p, pg.count, blockCounts(ft.n, ft.posPageCap, p))
			}
			if pg.firstItem != p*ft.posPageCap {
				return fmt.Errorf("stripe: list %d page %d starts at item %d, want %d",
					i, p, pg.firstItem, p*ft.posPageCap)
			}
			if pg.length != posPageLen(pg.count) {
				return fmt.Errorf("stripe: list %d page %d is %d bytes, want %d",
					i, p, pg.length, posPageLen(pg.count))
			}
			if err := checkExtent(pg.off, pg.length); err != nil {
				return fmt.Errorf("stripe: list %d page %d: %w", i, p, err)
			}
		}
	}
	return nil
}

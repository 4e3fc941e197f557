package gen

import (
	"math"
	"math/rand"

	"topk/internal/list"
)

func pow(x, y float64) float64 { return math.Pow(x, y) }

// correlated implements the Section 6.1 correlated generator:
//
//	"For the first list, we randomly select the position of data items.
//	Let p1 be the position of a data item in the first list, then for each
//	list Li (2 <= i <= m) we generate a random number r in interval
//	[1 .. n*α] ... and we put the data item at a position p whose distance
//	from p1 is r. If p is not free ... we put the data item at the free
//	position closest to p. ... the scores of the data items in each list
//	... follow the Zipf law with the Zipf parameter θ = 0.7."
//
// The paper leaves the direction of the displacement unspecified; we pick
// the sign uniformly at random and clamp to [1, n], so an item is as
// likely to move up as down. Nearest-free-position lookup uses a
// disjoint-set allocator, so building a list is O(n α(n)) instead of the
// naive O(n^2).
func correlated(spec Spec, rng *rand.Rand) (*list.Database, error) {
	n, m := spec.N, spec.M
	theta := spec.Theta
	if theta == 0 {
		theta = DefaultTheta
	}
	scores := ZipfScores(n, theta)

	// Position of each item in list 1: a uniform random permutation.
	// posIn1[d] is the 1-based position of item d.
	perm := rng.Perm(n)
	posIn1 := make([]int, n)
	itemsAt1 := make([]list.ItemID, n) // itemsAt1[p-1] = item at position p
	for d, p0 := range perm {
		posIn1[d] = p0 + 1
		itemsAt1[p0] = list.ItemID(d)
	}

	lists := make([]*list.List, m)
	lists[0] = rankedList(itemsAt1, scores)

	maxR := int(float64(n) * spec.Alpha)
	if maxR < 1 {
		maxR = 1
	}

	entries := make([]list.Entry, n)
	for i := 1; i < m; i++ {
		alloc := newSlotAllocator(n)
		items := make([]list.ItemID, n)
		// Place items in position-of-list-1 order so generation is
		// deterministic and the strongest scores get first pick, matching
		// the paper's intent that correlated top items stay near the top.
		for p0 := 1; p0 <= n; p0++ {
			d := itemsAt1[p0-1]
			r := 1 + rng.Intn(maxR)
			if rng.Intn(2) == 0 {
				r = -r
			}
			target := p0 + r
			if target < 1 {
				target = 1
			} else if target > n {
				target = n
			}
			p := alloc.takeNearest(target, rng)
			items[p-1] = d
		}
		for p := 1; p <= n; p++ {
			entries[p-1] = list.Entry{Item: items[p-1], Score: scores[p-1]}
		}
		l, err := list.New(entries)
		if err != nil {
			return nil, err
		}
		lists[i] = l
	}
	return list.NewDatabase(lists...)
}

// rankedList builds a list where the item at rank p gets scores[p-1].
func rankedList(items []list.ItemID, scores []float64) *list.List {
	entries := make([]list.Entry, len(items))
	for p := range items {
		entries[p] = list.Entry{Item: items[p], Score: scores[p]}
	}
	l, err := list.New(entries)
	if err != nil {
		// items is a permutation and scores are sorted by construction.
		panic(err)
	}
	return l
}

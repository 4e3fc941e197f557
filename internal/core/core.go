// Package core implements the top-k algorithms of the paper: the naive
// full scan, Fagin's Algorithm (FA, Section 3.1), the Threshold Algorithm
// (TA, Section 3.2), and the paper's contributions BPA (Section 4) and
// BPA2 (Section 5).
//
// All algorithms read the database exclusively through access.Probe, so
// the access tallies (and therefore the paper's execution-cost and
// number-of-accesses metrics) are produced by construction, not by
// after-the-fact estimation.
package core

import (
	"context"
	"fmt"
	"sort"

	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/list"
	"topk/internal/rank"
	"topk/internal/score"
)

// Algorithm selects one of the implemented top-k algorithms.
type Algorithm uint8

const (
	// AlgNaive scans all lists completely. O(m*n); correctness baseline.
	AlgNaive Algorithm = iota
	// AlgFA is Fagin's Algorithm (Section 3.1).
	AlgFA
	// AlgTA is the Threshold Algorithm (Section 3.2).
	AlgTA
	// AlgBPA is the Best Position Algorithm (Section 4).
	AlgBPA
	// AlgBPA2 is the optimized Best Position Algorithm (Section 5).
	AlgBPA2
	// AlgNRA is the No-Random-Access algorithm of Fagin et al. (the
	// paper's reference [15], Section 5 there) — a sorted-access-only
	// baseline from the framework the paper builds on.
	AlgNRA
	// AlgCA is the Combined Algorithm of Fagin et al. ([15], Section 6):
	// NRA plus a periodic random-access resolution of the most promising
	// candidate.
	AlgCA
)

// String returns the algorithm name used in experiment tables.
func (a Algorithm) String() string {
	switch a {
	case AlgNaive:
		return "Naive"
	case AlgFA:
		return "FA"
	case AlgTA:
		return "TA"
	case AlgBPA:
		return "BPA"
	case AlgBPA2:
		return "BPA2"
	case AlgNRA:
		return "NRA"
	case AlgCA:
		return "CA"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Algorithms lists the paper's lineup (Sections 3–5) in comparison order.
// All of them return exact overall scores.
func Algorithms() []Algorithm {
	return []Algorithm{AlgNaive, AlgFA, AlgTA, AlgBPA, AlgBPA2}
}

// ExtendedAlgorithms appends the Fagin-framework baselines NRA and CA to
// the paper's lineup. NRA and CA return a correct top-k set but possibly
// inexact scores (Result.Inexact); tests and experiments that assert
// exact scores should use Algorithms.
func ExtendedAlgorithms() []Algorithm {
	return append(Algorithms(), AlgNRA, AlgCA)
}

// Options configures a top-k query execution.
type Options struct {
	// Ctx, when non-nil, bounds the execution: the algorithms check it
	// at access granularity (every sorted/probe round of the threshold
	// algorithms, every position of the scan baselines) and abort with
	// Ctx.Err() once it is canceled or past its deadline. Nil means
	// uncancellable, matching the pre-context API.
	Ctx context.Context
	// K is the number of answers requested; 1 <= K <= n.
	K int
	// Scoring is the monotone overall-score function f.
	Scoring score.Func
	// Tracker selects the best-position structure for BPA/BPA2
	// (Section 5.2). The zero value is the bit array, matching the
	// paper's evaluation ("the best positions are managed using the Bit
	// Array approach").
	Tracker bestpos.Kind
	// Memoize makes TA and BPA skip the (m-1) random accesses for items
	// they have already seen. It never changes the answers or the
	// stopping position — only the access counts.
	//
	// The paper's formal accounting (Lemma 2, and the worked example of
	// Section 5.1) is NON-memoized: #random = #sorted * (m-1) always.
	// Its measured uniform-database gains for BPA, however, match the
	// memoized variant (the figures' BPA-mem series), and its Section 7
	// remark that "even if TA were keeping track of all seen data items,
	// it could not stop at a smaller position" explicitly contemplates
	// the memoized TA. Both variants are therefore first-class here.
	Memoize bool
	// Observer, when non-nil, receives a RoundInfo snapshot after every
	// round of TA, BPA and BPA2 — the data behind the paper's worked
	// examples. Naive and FA do not use thresholds and do not report.
	Observer Observer
	// Approximation is the θ >= 1 of the approximate threshold variant
	// (Fagin, Lotem, Naor; the paper's reference [15], Section 4.4
	// there): the run may stop as soon as Y holds k items with overall
	// score >= threshold/θ, and the returned set is a θ-approximation —
	// θ times the score of every returned item is at least the score of
	// every item not returned. The multiplicative guarantee is
	// meaningful for non-negative overall scores (Fagin et al. use
	// grades in [0,1]). Zero (or one) means exact. Naive and FA are
	// always exact and ignore it.
	Approximation float64
	// Floors gives NRA and CA the per-list minimum possible local score,
	// from which their worst-case bounds substitute unseen scores. Nil
	// takes each list's actual minimum via ListFloors (list-owner
	// metadata, not a charged access). Floors above a list's actual
	// minimum are rejected: they would break the bounds. Other
	// algorithms ignore the field.
	Floors []float64
	// CAPeriod is CA's random-access period h: every h rounds CA fully
	// resolves the most promising candidate. Zero takes the Fagin et al.
	// balance h = ⌊cr/cs⌋ = ⌊log2 n⌋ under the evaluation cost model.
	// Other algorithms ignore the field.
	CAPeriod int
}

// theta returns the effective approximation factor.
func (o Options) theta() float64 {
	if o.Approximation == 0 {
		return 1
	}
	return o.Approximation
}

// Interrupted returns Ctx's error once it is canceled or past its
// deadline; a nil Ctx never interrupts. The algorithms call it at their
// access boundaries.
func (o Options) Interrupted() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// validate checks the options against a database. It is what every
// algorithm entry point runs first.
func (o Options) validate(db *list.Database) error {
	if db == nil {
		return fmt.Errorf("core: nil database")
	}
	if o.Scoring == nil {
		return fmt.Errorf("core: nil scoring function")
	}
	if o.K < 1 || o.K > db.N() {
		return fmt.Errorf("core: k=%d out of range [1,%d]", o.K, db.N())
	}
	if o.Approximation != 0 && o.Approximation < 1 {
		return fmt.Errorf("core: approximation θ=%v must be >= 1", o.Approximation)
	}
	return nil
}

// Result reports the answers and the execution profile of one run.
type Result struct {
	// Algorithm that produced the result.
	Algorithm Algorithm
	// Items are the top-k answers ordered best-first (score desc, then
	// item ID asc).
	Items []rank.ScoredItem
	// Counts tallies every list access of the run.
	Counts access.Counts
	// StopPosition is the sorted-access depth at which the algorithm
	// stopped (FA, TA, BPA). For BPA2 it is 0: BPA2 performs no sorted
	// accesses; see Rounds and BestPositions instead.
	StopPosition int
	// Rounds is the number of parallel access rounds executed.
	Rounds int
	// BestPositions holds the final best position of every list for
	// BPA/BPA2, nil for the other algorithms.
	BestPositions []int
	// Threshold is the final stopping threshold: δ for TA, λ for
	// BPA/BPA2, the k-th worst-case bound W_k for NRA/CA; unset (0) for
	// Naive and FA.
	Threshold float64
	// Inexact reports that the scores in Items are worst-case lower
	// bounds rather than exact overall scores. Only NRA and CA can set
	// it — they guarantee the top-k *set*, not the scores — and it stays
	// false when every returned item happened to be fully resolved.
	Inexact bool
}

// Cost returns the execution cost of the run under the model
// (paper Section 2: as*cs + ar*cr, with direct accesses priced by the
// model's DirectCost as in Section 6.1).
func (r *Result) Cost(m access.CostModel) float64 { return m.Cost(r.Counts) }

// Run executes the selected algorithm over db with a fresh probe.
func Run(alg Algorithm, db *list.Database, opts Options) (*Result, error) {
	return RunProbe(alg, access.NewProbe(db), opts)
}

// RunProbe executes the selected algorithm through a caller-supplied
// probe, which tests use to audit per-position access counts.
func RunProbe(alg Algorithm, pr *access.Probe, opts Options) (*Result, error) {
	switch alg {
	case AlgNaive:
		return Naive(pr, opts)
	case AlgFA:
		return FA(pr, opts)
	case AlgTA:
		return TA(pr, opts)
	case AlgBPA:
		return BPA(pr, opts)
	case AlgBPA2:
		return BPA2(pr, opts)
	case AlgNRA:
		return NRA(pr, opts)
	case AlgCA:
		return CA(pr, opts)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", alg)
	}
}

// Oracle computes the exact top-k answers by brute force, bypassing the
// access model. It is the ground truth for tests and has no counterpart in
// the paper's cost accounting.
func Oracle(db *list.Database, k int, f score.Func) ([]rank.ScoredItem, error) {
	if db == nil || f == nil {
		return nil, fmt.Errorf("core: oracle needs database and scoring function")
	}
	if k < 1 || k > db.N() {
		return nil, fmt.Errorf("core: oracle k=%d out of range [1,%d]", k, db.N())
	}
	n, m := db.N(), db.M()
	locals := make([]float64, m)
	all := make([]rank.ScoredItem, n)
	for d := 0; d < n; d++ {
		item := list.ItemID(d)
		all[d] = rank.ScoredItem{
			Item:  item,
			Score: f.Combine(db.LocalScores(item, locals)),
		}
	}
	sort.Slice(all, func(i, j int) bool { return rank.Less(all[i], all[j]) })
	return all[:k:k], nil
}

package dist

import (
	"context"

	"topk/internal/list"
	"topk/internal/transport"
)

// BPA2 runs the paper's Section 5 distributed protocol over the
// deterministic in-process transport; see BPA2Over.
func BPA2(db *list.Database, opts Options) (*Result, error) {
	t, err := loopback(db)
	if err != nil {
		return nil, err
	}
	return BPA2Over(context.Background(), t, opts)
}

// BPA2Over runs the paper's Section 5 distributed protocol over the
// given transport. Each list owner manages its own seen positions and
// best position; the query originator keeps only the answer set Y and
// the m best-position scores. Per round the originator asks every
// non-exhausted owner to probe its first unseen position (a direct
// access — no position is ever read twice, Theorem 5) and resolves each
// probed item at the other owners, who record the looked-up positions
// locally. Every response piggybacks the owner's current best-position
// score, so the stopping threshold λ = f(s1(bp1), ..., sm(bpm)) costs no
// extra messages and the seen-position sets never travel — the property
// that makes BPA2 attractive in distributed settings.
//
// Probes are sequential: which position owner j probes depends on the
// marks the round's earlier probes planted there. A mark to owner j
// only has to arrive before j's own probe, so the round is scheduled in
// m+1 sequential steps and m(m+1)/2 wire exchanges instead of 2m steps
// and m²:
//
//   - after owner i's probe, its marks to the owners still to probe this
//     round go out at once, and the next prober's probe rides behind its
//     mark in one batch (which the owner runs in order);
//   - its other marks — to owners that probed earlier in the round or
//     will not probe — are held and go out in one wave at the end of the
//     round, coalesced per owner in probe order;
//   - each probed item's m local scores fill a row, and Y and the λ stop
//     check run once that wave has answered.
//
// Every owner still receives exactly the sequential schedule — the marks
// of earlier probers, its own probe, the marks of later probers — so
// accesses, best positions and every piggybacked answer are those of the
// one-list-at-a-time schedule; only the interleaving across owners
// changes. Each probed item is new and gets marked at every owner, so
// all owners have seen exactly as many positions as items were probed:
// the lists run out together, and once n items are probed the round
// sends no further probe. The next round's first probe is never sent
// early: it would cross the stop check and advance the best positions of
// a query that has already stopped.
func BPA2Over(ctx context.Context, t transport.Transport, opts Options) (*Result, error) {
	r, err := newRunner(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	m := r.m

	// The originator's complete state: the answer set (in r.y), the m
	// best-position scores, and which owners have nothing left to probe.
	bestScore := make([]float64, m)
	exhausted := make([]bool, m)
	for i := range bestScore {
		bestScore[i] = inf
	}
	nextLive := func(after int) int {
		for j := after + 1; j < m; j++ {
			if !exhausted[j] {
				return j
			}
		}
		return -1
	}

	// Per-round scratch: the probed items in probe order with their rows
	// of local scores, the wave in flight (forward marks, then the next
	// probe) and the held back-marks, each call tagged with the row its
	// answer fills.
	items := make([]list.ItemID, 0, m)
	rows := make([][]float64, m)
	for k := range rows {
		rows[k] = make([]float64, m)
	}
	var wave, back []transport.Call
	var waveRow, backRow []int
	mark := func(resp transport.Response, j, row int) error {
		mr, err := as[transport.MarkResp](resp)
		if err != nil {
			return err
		}
		bestScore[j], exhausted[j] = float64(mr.BestScore), mr.Exhausted
		rows[row][j] = mr.Score
		return nil
	}
	send := func(calls []transport.Call) ([]transport.Response, error) {
		if len(calls) > 1 {
			return r.doAll(calls)
		}
		resp, err := r.do(calls[0].Owner, calls[0].Req)
		return []transport.Response{resp}, err
	}
	probed := 0 // items probed so far

	res := &Result{}
	for {
		r.nw.net.Rounds++
		items, back, backRow = items[:0], back[:0], backRow[:0]
		for p := nextLive(-1); p >= 0; {
			wave = append(wave, transport.Call{Owner: p, Req: transport.ProbeReq{}})
			resps, err := send(wave)
			if err != nil {
				return nil, err
			}
			last := len(resps) - 1
			for c, resp := range resps[:last] {
				if err := mark(resp, wave[c].Owner, waveRow[c]); err != nil {
					return nil, err
				}
			}
			wave, waveRow = wave[:0], waveRow[:0]
			pr, err := as[transport.ProbeResp](resps[last])
			if err != nil {
				return nil, err
			}
			bestScore[p], exhausted[p] = float64(pr.BestScore), pr.Exhausted
			if pr.Empty {
				p = nextLive(p) // defensive: owner had nothing left to probe
				continue
			}
			row := len(items)
			items = append(items, pr.Entry.Item)
			rows[row][p] = pr.Entry.Score
			probed++
			nxt := -1
			if probed < r.n {
				nxt = nextLive(p)
			}
			for j := 0; j < m; j++ {
				if j == p {
					continue
				}
				c := transport.Call{Owner: j, Req: transport.MarkReq{Item: pr.Entry.Item}}
				if nxt >= 0 && j > p && !exhausted[j] {
					wave, waveRow = append(wave, c), append(waveRow, row)
				} else {
					back, backRow = append(back, c), append(backRow, row)
				}
			}
			p = nxt
		}
		if len(back) > 0 {
			resps, err := send(back)
			if err != nil {
				return nil, err
			}
			for c, resp := range resps {
				if err := mark(resp, back[c].Owner, backRow[c]); err != nil {
					return nil, err
				}
			}
		}
		if len(items) == 0 {
			// Every position of every list has been seen; Y is exact.
			break
		}
		for row, d := range items {
			r.y.Add(d, r.f.Combine(rows[row]))
		}

		// After the first round every owner has probed position 1 at the
		// latest, so no bestScore is left at its +Inf initial value.
		lambda := r.f.Combine(bestScore)
		res.Threshold = lambda
		if r.y.AtLeast(lambda) {
			break
		}
	}

	sts, err := r.stats()
	if err != nil {
		return nil, err
	}
	res.BestPositions = make([]int, m)
	for i, st := range sts {
		res.BestPositions[i] = st.Best
	}
	return r.assemble(res, sts), nil
}

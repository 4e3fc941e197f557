// Websources: top-k over a mix of scannable and lookup-only sources —
// the web-accessible-databases setting of the paper's related work
// (references [7] and [21]): a review site can stream restaurants by
// rating, but a mapping service only answers "how far is X?" — it cannot
// be scanned by distance.
//
// TAz (Fagin et al.) handles this by substituting each lookup-only
// list's ceiling into the threshold. The best-position machinery can do
// better: every distance lookup lands on a concrete position of the
// distance list, so its best position grows and BPAz's threshold
// tightens from the ceiling to real scores. Whether that wins depends on
// the data, exactly as in the paper's evaluation: on *independent*
// scores the looked-up positions rarely form a contiguous prefix and
// BPAz ties TAz; when the sources are *correlated* (well-rated places
// cluster downtown), the prefix fills in and BPAz stops far sooner.
// This example runs both workloads.
//
// Run with: go run ./examples/websources
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"topk"
)

const (
	restaurants = 5000
	keep        = 5
)

func main() {
	// List 0: rating index (scannable). List 1: proximity score from the
	// mapping service (lookup-only).
	sortable := []bool{true, false}

	for _, workload := range []struct {
		name        string
		correlation float64
	}{
		{"independent sources", 0},
		{"correlated sources (good restaurants cluster downtown)", 0.9},
	} {
		db := buildSources(workload.correlation)
		fmt.Printf("%s — top-%d of %d restaurants by rating + proximity\n",
			workload.name, keep, restaurants)
		for _, alg := range []topk.Algorithm{topk.TA, topk.BPA} {
			res, err := db.Exec(context.Background(), topk.Query{K: keep, Algorithm: alg, Sortable: sortable})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-5s stopped at rating position %4d  (%d accesses, best=%s %.2f)\n",
				alg.String()+"z", res.Stats.StopPosition, res.Stats.TotalAccesses(),
				db.NameOf(res.Items[0].Item), res.Items[0].Score)
		}
		fmt.Println()
	}
	fmt.Println("On correlated sources every proximity lookup fills in a top")
	fmt.Println("position of the unscannable list; BPAz's threshold drops below the")
	fmt.Println("ceiling TAz is stuck with, and it stops much earlier — the same")
	fmt.Println("mechanism behind the paper's Figures 9-11.")
}

// buildSources synthesizes the two score lists: ratings in [0,5] and a
// proximity score, blended toward the rating by the correlation factor.
func buildSources(correlation float64) *topk.Database {
	rng := rand.New(rand.NewSource(42))
	ratings := make([]float64, restaurants)
	proximity := make([]float64, restaurants)
	for i := range ratings {
		ratings[i] = 5 * rng.Float64()
		proximity[i] = correlation*ratings[i] + (1-correlation)*5*rng.Float64()
	}
	db, err := topk.FromColumns([][]float64{ratings, proximity})
	if err != nil {
		log.Fatal(err)
	}
	return db
}

// Quickstart: build a small database, run a top-k query with the default
// algorithm (BPA2), and compare every algorithm's access counts on the
// same query.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"topk"
)

func main() {
	// Three lists over five items. Column i holds the local scores of
	// items 0..4 in list i — think of each list as one ranked criterion.
	db, err := topk.FromColumns([][]float64{
		{30, 11, 26, 28, 17}, // criterion 1
		{21, 28, 14, 13, 24}, // criterion 2
		{14, 24, 30, 25, 29}, // criterion 3
	})
	if err != nil {
		log.Fatal(err)
	}

	// Default query: BPA2 with the Sum scoring function.
	ctx := context.Background()
	res, err := db.Exec(ctx, topk.Query{K: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-2 items by sum of local scores:")
	for i, it := range res.Items {
		fmt.Printf("  %d. item %d  overall=%.0f\n", i+1, it.Item, it.Score)
	}
	fmt.Printf("accesses: %d (sorted=%d random=%d direct=%d), cost=%.1f\n\n",
		res.Stats.TotalAccesses(), res.Stats.SortedAccesses,
		res.Stats.RandomAccesses, res.Stats.DirectAccesses, res.Stats.Cost)

	// The same answers, five ways. The paper's point: BPA stops no later
	// than TA, and BPA2 never touches a list position twice.
	fmt.Println("algorithm comparison on the same query:")
	fmt.Printf("  %-6s  %6s  %6s  %6s  %6s  %8s\n", "alg", "sorted", "random", "direct", "total", "cost")
	for _, alg := range topk.Algorithms() {
		r, err := db.Exec(ctx, topk.Query{K: 2, Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		s := r.Stats
		fmt.Printf("  %-6s  %6d  %6d  %6d  %6d  %8.1f\n",
			alg, s.SortedAccesses, s.RandomAccesses, s.DirectAccesses,
			s.TotalAccesses(), s.Cost)
	}

	// A weighted query: criterion 3 matters twice as much.
	weighted, err := topk.WeightedSum([]float64{1, 1, 2})
	if err != nil {
		log.Fatal(err)
	}
	wres, err := db.Exec(ctx, topk.Query{K: 1, Scoring: weighted})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith weights (1,1,2) the winner is item %d (overall=%.0f)\n",
		wres.Items[0].Item, wres.Items[0].Score)
}

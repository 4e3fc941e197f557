// Docsearch: the paper's information-retrieval motivation (Section 1).
// "Suppose we want to find the top-k documents whose aggregate rank is
// the highest wrt. some given keywords. ... the solution is to have for
// each keyword a ranked list of documents, and return the k documents
// whose aggregate rank in all lists are the highest."
//
// This example builds one ranked list per query keyword over a synthetic
// document corpus (Zipf-ish relevance scores, correlated across keywords
// the way real topical corpora are) and compares the work TA, BPA and
// BPA2 do to answer the same top-10 query.
//
// Run with: go run ./examples/docsearch
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"topk"
)

const (
	numDocs     = 20_000
	numKeywords = 4
	topN        = 10
)

func main() {
	keywords := []string{"distributed", "top-k", "threshold", "algorithm"}[:numKeywords]
	lists := buildCorpus(keywords)

	db, err := topk.FromNamedScores(lists, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d documents, %d keyword lists\n\n", db.N(), db.M())

	ctx := context.Background()
	res, err := db.Exec(ctx, topk.Query{K: topN})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-%d documents for %v:\n", topN, keywords)
	for i, it := range res.Items {
		fmt.Printf("  %2d. %-12s aggregate=%.4f\n", i+1, it.Name, it.Score)
	}

	fmt.Println("\nwork per algorithm for the same query:")
	fmt.Printf("  %-5s  %9s  %12s  %9s\n", "alg", "accesses", "exec cost", "stop pos")
	for _, alg := range []topk.Algorithm{topk.TA, topk.BPA, topk.BPA2} {
		r, err := db.Exec(ctx, topk.Query{K: topN, Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		stop := fmt.Sprintf("%d", r.Stats.StopPosition)
		if alg == topk.BPA2 {
			stop = fmt.Sprintf("bp=%d", r.Stats.BestPositions[0])
		}
		fmt.Printf("  %-5s  %9d  %12.0f  %9s\n",
			alg, r.Stats.TotalAccesses(), r.Stats.Cost, stop)
	}
	fmt.Println("\nBPA2 reads each list position at most once — on keyword lists")
	fmt.Println("with correlated relevance that is most of the saving.")
}

// buildCorpus synthesizes per-keyword relevance lists. A document has a
// latent quality drawn once, plus keyword-specific noise, so its rank is
// correlated across keywords — the regime where best positions shine.
func buildCorpus(keywords []string) []map[string]float64 {
	rng := rand.New(rand.NewSource(2007)) // the paper's year, for luck
	quality := make([]float64, numDocs)
	for d := range quality {
		// Heavy-tailed "authority" of the document.
		quality[d] = math.Pow(rng.Float64(), 3)
	}
	lists := make([]map[string]float64, len(keywords))
	for ki := range keywords {
		l := make(map[string]float64, numDocs)
		for d := 0; d < numDocs; d++ {
			name := fmt.Sprintf("doc-%05d", d)
			relevance := 0.7*quality[d] + 0.3*rng.Float64()
			l[name] = relevance
		}
		lists[ki] = l
	}
	return lists
}

package stripe

import "topk/internal/obs"

// Metric handles of the stripe store, resolved once at package init like
// the transport catalogue (internal/transport/metrics.go): a cache hit
// costs one atomic add, and obs.Default.SetEnabled(false) reduces even
// that to an atomic load. Reads a list serves from its hint reach the
// hits counter in one add per flush (see List), not one per read. The
// families, also listed in doc.go:
//
//	topk_stripe_cache_hits_total       counter  block reads served from cache
//	topk_stripe_cache_misses_total     counter  block reads that went to disk
//	topk_stripe_cache_evictions_total  counter  blocks dropped for the budget
//	topk_stripe_cache_resident_bytes   gauge    decoded bytes resident, summed
//	                                            over every open stripe DB —
//	                                            never exceeds the sum of the
//	                                            configured budgets
var (
	mCacheHits      = obs.GetCounter("topk_stripe_cache_hits_total", "Stripe-cache block reads served from the cache.", nil)
	mCacheMisses    = obs.GetCounter("topk_stripe_cache_misses_total", "Stripe-cache block reads that went to disk.", nil)
	mCacheEvictions = obs.GetCounter("topk_stripe_cache_evictions_total", "Stripe-cache blocks evicted to respect the byte budget.", nil)
	mCacheResident  = obs.GetGauge("topk_stripe_cache_resident_bytes", "Decoded bytes resident in stripe caches, summed over open stripe databases.", nil)
)

package transport

import (
	"time"

	"topk/internal/obs"
)

// Metric handles of the transport layer, created once at package init
// so the hot path never touches the registry's maps: an instrumented
// exchange costs a map read on a read-only map plus a few atomic adds,
// and obs.Default.SetEnabled(false) reduces even those to a single
// atomic load. Nothing here feeds the paper's accounting — Net and
// access tallies are computed exactly as before — which is what lets
// the parity suites run bit-identical with metrics on.
//
// The catalogue (also in doc.go):
//
//	topk_owner_exchanges_total{kind}            counter    data-plane exchanges served
//	topk_owner_exchange_seconds{kind}           histogram  owner-side handling latency
//	topk_owner_exchange_errors_total{kind}      counter    exchanges answered with an error
//	topk_owner_wire_bytes_total{codec,direction} counter   /rpc body bytes (rx|tx; codec is always binary)
//	topk_owner_sessions_open                    gauge      live sessions
//	topk_owner_sessions_opened_total            counter
//	topk_owner_sessions_closed_total            counter
//	topk_owner_sessions_evicted_total           counter    TTL sweep reclaims
//	topk_owner_session_syncs_total              counter    handoff state transfers applied
//	topk_owner_inflight_exchanges               gauge      data-plane exchanges being served now
//	topk_owner_shed_total                       counter    exchanges shed by admission control (429)
//	topk_owner_deadline_abandoned_total         counter    exchanges abandoned on an expired deadline budget
//
//	topk_client_exchanges_total{kind}           counter    exchanges completed by originators
//	topk_client_exchange_seconds{kind}          histogram  full exchange latency (incl. retries)
//	topk_client_exchange_errors_total{kind}     counter    exchanges that failed terminally
//	topk_client_wire_bytes_total{codec,direction} counter  encoded request (tx) / response (rx) bytes (codec=binary)
//	topk_client_exchange_bytes                  histogram  request+response size per exchange
//	topk_client_retries_total                   counter    extra attempts beyond the first
//	topk_client_failovers_total                 counter    exchanges answered by a sibling replica
//	topk_client_handoffs_total                  counter    session pin-to-sibling handoffs
//	topk_client_replica_failures_total          counter    transport-level replica failures
//	topk_client_health_transitions_total{to}    counter    healthy<->unhealthy flips
//	topk_client_replica_healthy{list,replica}   gauge      last health verdict (0|1)
//	topk_client_probe_ewma_seconds{list,replica} gauge     EWMA round-trip latency
//	topk_client_breaker_open{list,replica}      gauge      circuit breaker open (0|1)
//	topk_client_breaker_transitions_total{to}   counter    breaker open<->closed flips
//	topk_client_backpressure_waits_total        counter    retry-after waits honored after an owner shed
//	topk_client_sessions_open                   gauge
//	topk_client_sessions_opened_total           counter
var rpcKinds = []Kind{KindSorted, KindLookup, KindProbe, KindMark, KindTopK, KindAbove, KindFetch, KindBatch, KindUpdate}

func counterPerKind(name, help string) map[Kind]*obs.Counter {
	out := make(map[Kind]*obs.Counter, len(rpcKinds))
	for _, k := range rpcKinds {
		out[k] = obs.GetCounter(name, help, obs.Labels{"kind": string(k)})
	}
	return out
}

func histogramPerKind(name, help string) map[Kind]*obs.Histogram {
	out := make(map[Kind]*obs.Histogram, len(rpcKinds))
	for _, k := range rpcKinds {
		out[k] = obs.GetHistogram(name, help, obs.Labels{"kind": string(k)}, obs.LatencyBuckets)
	}
	return out
}

// wireCounters is the {codec,direction} pair of one byte counter
// family. The codec label always reads "binary" — the only data-plane
// codec — and stays so dashboards keyed on it keep working.
type wireCounters struct {
	rx, tx *obs.Counter
}

func wireCountersOf(name, help string) wireCounters {
	mk := func(dir string) *obs.Counter {
		return obs.GetCounter(name, help, obs.Labels{"codec": "binary", "direction": dir})
	}
	return wireCounters{rx: mk("rx"), tx: mk("tx")}
}

// add charges rx and tx bytes.
func (w wireCounters) add(rx, tx int64) {
	w.rx.Add(rx)
	w.tx.Add(tx)
}

// Owner (server) side.
var (
	mOwnerExchanges    = counterPerKind("topk_owner_exchanges_total", "Data-plane exchanges served, by message kind.")
	mOwnerExchangeSec  = histogramPerKind("topk_owner_exchange_seconds", "Owner-side exchange handling latency in seconds, by message kind.")
	mOwnerExchangeErrs = counterPerKind("topk_owner_exchange_errors_total", "Data-plane exchanges answered with an error, by message kind.")
	mOwnerWireBytes    = wireCountersOf("topk_owner_wire_bytes_total", "Bytes on the /rpc data plane, by codec and direction.")
	mOwnerSessionsOpen = obs.GetGauge("topk_owner_sessions_open", "Sessions currently open at this owner.", nil)
	mOwnerSessOpened   = obs.GetCounter("topk_owner_sessions_opened_total", "Sessions opened over the owner's lifetime.", nil)
	mOwnerSessClosed   = obs.GetCounter("topk_owner_sessions_closed_total", "Sessions closed by their originator.", nil)
	mOwnerSessEvicted  = obs.GetCounter("topk_owner_sessions_evicted_total", "Idle sessions reclaimed by the TTL sweep.", nil)
	mOwnerSessionSyncs = obs.GetCounter("topk_owner_session_syncs_total", "Handoff session-state transfers applied via /session/sync.", nil)
	mOwnerInflight     = obs.GetGauge("topk_owner_inflight_exchanges", "Data-plane exchanges being served right now.", nil)
	mOwnerShed         = obs.GetCounter("topk_owner_shed_total", "Data-plane exchanges shed by admission control before any work was done.", nil)
	mOwnerDeadline     = obs.GetCounter("topk_owner_deadline_abandoned_total", "Exchanges abandoned because their deadline budget expired mid-handling.", nil)
)

// Originator (client) side.
var (
	mClientExchanges    = counterPerKind("topk_client_exchanges_total", "Exchanges completed by this originator, by message kind.")
	mClientExchangeSec  = histogramPerKind("topk_client_exchange_seconds", "Full exchange latency in seconds (including retries and failover), by message kind.")
	mClientExchangeErrs = counterPerKind("topk_client_exchange_errors_total", "Exchanges that failed terminally, by message kind.")
	mClientWireBytes    = wireCountersOf("topk_client_wire_bytes_total", "Encoded bytes on the client data plane, by codec and direction.")
	mClientExchBytes    = obs.GetHistogram("topk_client_exchange_bytes", "Request plus response bytes per completed exchange.", nil, obs.SizeBuckets)
	mClientRetries      = obs.GetCounter("topk_client_retries_total", "Extra exchange attempts beyond the first.", nil)
	mClientFailovers    = obs.GetCounter("topk_client_failovers_total", "Exchanges answered by a different replica than first targeted.", nil)
	mClientHandoffs     = obs.GetCounter("topk_client_handoffs_total", "Session pin-to-sibling handoffs after a pinned replica failed.", nil)
	mClientReplicaFails = obs.GetCounter("topk_client_replica_failures_total", "Transport-level failures observed against replicas.", nil)
	mClientHealthUp     = obs.GetCounter("topk_client_health_transitions_total", "Replica health verdict flips, by direction.", obs.Labels{"to": "healthy"})
	mClientHealthDown   = obs.GetCounter("topk_client_health_transitions_total", "Replica health verdict flips, by direction.", obs.Labels{"to": "unhealthy"})
	mClientSessionsOpen = obs.GetGauge("topk_client_sessions_open", "Query sessions currently open on this originator.", nil)
	mClientSessOpened   = obs.GetCounter("topk_client_sessions_opened_total", "Query sessions opened over this originator's lifetime.", nil)

	mClientBreakerOpened = obs.GetCounter("topk_client_breaker_transitions_total", "Circuit breaker transitions, by direction.", obs.Labels{"to": "open"})
	mClientBreakerClosed = obs.GetCounter("topk_client_breaker_transitions_total", "Circuit breaker transitions, by direction.", obs.Labels{"to": "closed"})
	mClientBackpressure  = obs.GetCounter("topk_client_backpressure_waits_total", "Retry-after waits honored after an owner shed an exchange (429).", nil)
)

// replicaGauges returns the per-replica health, EWMA and breaker gauge
// handles, labelled by position in the topology. Dial installs them on
// each replica so observe() updates a cached handle instead of hitting
// the registry.
func replicaGauges(list, index int) (healthy, ewma, brk *obs.Gauge) {
	labels := obs.Labels{"list": itoa(list), "replica": itoa(index)}
	return obs.GetGauge("topk_client_replica_healthy", "Last health verdict per replica (1 healthy, 0 unhealthy).", labels),
		obs.GetGauge("topk_client_probe_ewma_seconds", "EWMA round-trip latency per replica, from probes and data-plane exchanges.", labels),
		obs.GetGauge("topk_client_breaker_open", "Circuit breaker state per replica (1 open or half-open, 0 closed).", labels)
}

// itoa is strconv.Itoa without the import weight in this file's hot
// companions; replica counts are tiny.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 && i > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// observeExchangeMetrics charges one terminally completed client
// exchange (success or failure) to the client-side metric families.
// attempts is the number of wire attempts spent: every attempt sent
// the request body, only a success received a response body.
func observeExchangeMetrics(kind Kind, d time.Duration, reqBytes, respBytes, attempts int, failedOver bool, err error) {
	if err != nil {
		if c := mClientExchangeErrs[kind]; c != nil {
			c.Inc()
		}
	} else {
		if c := mClientExchanges[kind]; c != nil {
			c.Inc()
		}
		if h := mClientExchangeSec[kind]; h != nil {
			h.Observe(d.Seconds())
		}
		mClientExchBytes.Observe(float64(reqBytes + respBytes))
	}
	mClientWireBytes.add(int64(respBytes), int64(reqBytes)*int64(attempts))
	if attempts > 1 {
		mClientRetries.Add(int64(attempts - 1))
	}
	if failedOver && err == nil {
		mClientFailovers.Inc()
	}
}

package transport

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"topk/internal/obs"
)

// TestMetricsExposition: a real owner handler serves /metrics, the
// scrape is valid Prometheus text exposition, and driving traffic over
// the wire moves both the owner- and client-side metric families (the
// test process hosts both ends, and the registry is process-wide).
func TestMetricsExposition(t *testing.T) {
	prev := obs.Default.Enabled()
	obs.Default.SetEnabled(true)
	t.Cleanup(func() { obs.Default.SetEnabled(prev) })

	db := testDB(t)
	urls, _ := startHTTPOwners(t, db)
	hc, err := DialOwners(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	ctx := context.Background()

	served := obs.GetCounter("topk_owner_exchanges_total", "Data-plane exchanges served, by message kind.", obs.Labels{"kind": string(KindSorted)})
	opened := obs.GetCounter("topk_owner_sessions_opened_total", "Sessions opened over the owner's lifetime.", nil)
	servedBefore, openedBefore := served.Value(), opened.Value()

	s := open(t, hc)
	if _, err := s.Do(ctx, 0, SortedReq{Pos: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(ctx, 1, SortedReq{Pos: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if got := served.Value() - servedBefore; got != 2 {
		t.Errorf("sorted exchanges counter moved by %d, want 2", got)
	}
	// Owners count a session when its first exchange creates it: the
	// two owners the session reached, not the third.
	if got := opened.Value() - openedBefore; got != 2 {
		t.Errorf("sessions-opened counter moved by %d, want 2 (one per contacted owner)", got)
	}

	resp, err := http.Get(urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition is malformed: %v\n%s", err, body)
	}
	for _, want := range []string{
		"topk_owner_exchanges_total", "topk_owner_sessions_open",
		"topk_owner_wire_bytes_total", "topk_client_exchanges_total",
		"topk_client_exchange_seconds_bucket",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition is missing %s", want)
		}
	}

	// The JSON snapshot serves the same families.
	resp, err = http.Get(urls[0] + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	jbody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var samples []obs.Sample
	if err := json.Unmarshal(jbody, &samples); err != nil {
		t.Fatalf("JSON snapshot: %v", err)
	}
	if len(samples) == 0 {
		t.Error("JSON snapshot is empty")
	}
}

// TestMetricsDisabledFrozen: with the registry off, wire traffic leaves
// every handle untouched — the off switch is what the overhead
// benchmark's baseline relies on.
func TestMetricsDisabledFrozen(t *testing.T) {
	prev := obs.Default.Enabled()
	obs.Default.SetEnabled(false)
	t.Cleanup(func() { obs.Default.SetEnabled(prev) })

	db := testDB(t)
	urls, _ := startHTTPOwners(t, db)
	hc, err := DialOwners(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	served := obs.GetCounter("topk_owner_exchanges_total", "Data-plane exchanges served, by message kind.", obs.Labels{"kind": string(KindSorted)})
	before := served.Value()
	s := open(t, hc)
	if _, err := s.Do(context.Background(), 0, SortedReq{Pos: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := served.Value(); got != before {
		t.Errorf("disabled registry still counted: %d -> %d", before, got)
	}
}

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"topk"
	"topk/internal/gen"
	"topk/internal/transport"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	db, err := topk.FromNamedScores([]map[string]float64{
		{"alpha": 30, "beta": 11, "gamma": 26, "delta": 28, "eps": 17},
		{"alpha": 21, "beta": 28, "gamma": 14, "delta": 13, "eps": 24},
		{"alpha": 14, "beta": 24, "gamma": 30, "delta": 25, "eps": 29},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

func TestNewNilDatabase(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil database accepted")
	}
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	var body map[string]string
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &body)
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestInfo(t *testing.T) {
	ts := testServer(t)
	var body struct {
		N          int  `json:"n"`
		M          int  `json:"m"`
		Dictionary bool `json:"dictionary"`
	}
	getJSON(t, ts.URL+"/v1/info", http.StatusOK, &body)
	if body.N != 5 || body.M != 3 || !body.Dictionary {
		t.Errorf("info = %+v", body)
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	ts := testServer(t)
	var body map[string][]string
	getJSON(t, ts.URL+"/v1/algorithms", http.StatusOK, &body)
	algs := body["algorithms"]
	if len(algs) != 7 || algs[0] != "BPA2" || algs[5] != "NRA" {
		t.Errorf("algorithms = %v", algs)
	}
}

type topkResp struct {
	Algorithm string `json:"algorithm"`
	K         int    `json:"k"`
	Items     []struct {
		Item  int     `json:"item"`
		Name  string  `json:"name"`
		Score float64 `json:"score"`
	} `json:"items"`
	Stats struct {
		SortedAccesses int64   `json:"sortedAccesses"`
		TotalAccesses  int64   `json:"totalAccesses"`
		Cost           float64 `json:"cost"`
	} `json:"stats"`
	Inexact bool `json:"inexact"`
}

func TestTopKDefaults(t *testing.T) {
	ts := testServer(t)
	var body topkResp
	getJSON(t, ts.URL+"/v1/topk?k=2", http.StatusOK, &body)
	if body.Algorithm != "BPA2" || body.K != 2 || len(body.Items) != 2 {
		t.Fatalf("body = %+v", body)
	}
	// Overall (Sum): gamma=70, delta=66, alpha=65, eps=70, beta=63.
	// Top-2 are eps and gamma at 70 each; names tie-break by item ID
	// (FromNamedScores sorts names: alpha beta delta eps gamma).
	if body.Items[0].Score != 70 || body.Items[1].Score != 70 {
		t.Errorf("scores = %+v", body.Items)
	}
	if body.Stats.TotalAccesses == 0 || body.Stats.Cost == 0 {
		t.Errorf("stats = %+v", body.Stats)
	}
	if body.Inexact {
		t.Error("BPA2 marked inexact")
	}
}

func TestTopKAlgorithmsAndOptions(t *testing.T) {
	ts := testServer(t)
	for _, q := range []string{
		"k=3&alg=ta",
		"k=3&alg=bpa&tracker=interval",
		"k=3&alg=nra",
		"k=3&alg=ca",
		"k=3&alg=ta&theta=1.5",
		"k=3&scoring=wsum&weights=2,1,0.5",
		"k=3&scoring=min",
		"k=3&alg=ta&sortable=1,0,1",
		"k=3&alg=bpa&sortable=true,false,true",
	} {
		var body topkResp
		getJSON(t, ts.URL+"/v1/topk?"+q, http.StatusOK, &body)
		if len(body.Items) != 3 {
			t.Errorf("query %q: %d items", q, len(body.Items))
		}
	}
}

func TestTopKErrors(t *testing.T) {
	ts := testServer(t)
	cases := []string{
		"",                              // missing k
		"k=abc",                         // bad k
		"k=0",                           // out of range
		"k=99",                          // k > n
		"k=2&alg=zzz",                   // unknown algorithm
		"k=2&scoring=zzz",               // unknown scoring
		"k=2&scoring=wsum",              // wsum without weights
		"k=2&weights=1,x",               // bad weight
		"k=2&theta=zzz",                 // bad theta
		"k=2&theta=0.5",                 // theta < 1
		"k=2&tracker=zzz",               // unknown tracker
		"k=2&alg=ta&sortable=1,maybe,1", // bad sortable flag
		"k=2&alg=ta&sortable=0,0,0",     // no sortable list
		"k=2&alg=bpa2&sortable=1,0,1",   // restricted BPA2 unsupported
		"k=2&alg=ta&sortable=1,0",       // wrong arity
	}
	for _, q := range cases {
		var body struct {
			Error string `json:"error"`
		}
		getJSON(t, ts.URL+"/v1/topk?"+q, http.StatusBadRequest, &body)
		if body.Error == "" {
			t.Errorf("query %q: empty error body", q)
		}
	}
}

type distResp struct {
	Protocol string `json:"protocol"`
	K        int    `json:"k"`
	Items    []struct {
		Item  int     `json:"item"`
		Name  string  `json:"name"`
		Score float64 `json:"score"`
	} `json:"items"`
	Net struct {
		Messages      int64   `json:"messages"`
		Payload       int64   `json:"payload"`
		Rounds        int     `json:"rounds"`
		PerOwner      []int64 `json:"perOwner"`
		TotalAccesses int64   `json:"totalAccesses"`
	} `json:"net"`
	Recovery struct {
		Restarts       int `json:"restarts"`
		Handoffs       int `json:"handoffs"`
		FailedReplicas int `json:"failedReplicas"`
	} `json:"recovery"`
}

func TestDistDefaults(t *testing.T) {
	ts := testServer(t)
	var body distResp
	getJSON(t, ts.URL+"/v1/dist?k=2", http.StatusOK, &body)
	if body.Protocol != "dist-bpa2" || body.K != 2 || len(body.Items) != 2 {
		t.Fatalf("body = %+v", body)
	}
	// Same data as /v1/topk: the top-2 overall sums are 70 and 70.
	if body.Items[0].Score != 70 || body.Items[1].Score != 70 {
		t.Errorf("scores = %+v", body.Items)
	}
	if body.Items[0].Name == "" {
		t.Errorf("items lost their names: %+v", body.Items)
	}
	if body.Net.Messages == 0 || body.Net.Payload == 0 || body.Net.Rounds == 0 || body.Net.TotalAccesses == 0 {
		t.Errorf("net accounting empty: %+v", body.Net)
	}
	if len(body.Net.PerOwner) != 3 {
		t.Fatalf("perOwner = %v, want one entry per list", body.Net.PerOwner)
	}
	var sum int64
	for _, c := range body.Net.PerOwner {
		sum += c
	}
	if sum != body.Net.Messages {
		t.Errorf("perOwner sums to %d, messages is %d", sum, body.Net.Messages)
	}
}

// TestDistRecoveryBlock: /v1/dist always carries the recovery block —
// all-zero on an undisturbed run — and accepts the restart parameter.
func TestDistRecoveryBlock(t *testing.T) {
	ts := testServer(t)
	var body distResp
	getJSON(t, ts.URL+"/v1/dist?k=2&restart=failed", http.StatusOK, &body)
	if body.Recovery.Restarts != 0 || body.Recovery.Handoffs != 0 || body.Recovery.FailedReplicas != 0 {
		t.Errorf("undisturbed run reported recovery %+v", body.Recovery)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	getJSON(t, ts.URL+"/v1/dist?k=2&restart=zzz", http.StatusBadRequest, &errBody)
	if !strings.Contains(errBody.Error, "restart policy") {
		t.Errorf("bad restart error = %q", errBody.Error)
	}
}

func TestDistProtocolsAndOptions(t *testing.T) {
	ts := testServer(t)
	for _, q := range []string{
		"k=3&protocol=ta",
		"k=3&protocol=bpa",
		"k=3&protocol=bpa2&tracker=interval",
		"k=3&protocol=tput",
		"k=3&protocol=tput-a",
		"k=3&protocol=bpa&scoring=min",
		"k=3&scoring=wsum&weights=2,1,0.5",
		"k=3&restart=always",
	} {
		var body distResp
		getJSON(t, ts.URL+"/v1/dist?"+q, http.StatusOK, &body)
		if len(body.Items) != 3 {
			t.Errorf("query %q: %d items", q, len(body.Items))
		}
	}
}

// TestDistOverCluster: a server built with NewWithCluster answers
// /v1/dist from the remote owner cluster — same answers and accounting
// as the in-process simulation on the same data, concurrent requests
// included (each runs in its own owner-side session).
func TestDistOverCluster(t *testing.T) {
	db, err := topk.Generate(topk.GenSpec{Kind: topk.GenUniform, N: 200, M: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// The owners hold the same generated data: Generate is deterministic
	// in the spec, and gen.Spec mirrors topk.GenSpec field for field.
	inner := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 200, M: 3, Seed: 17})
	urls := make([]string, db.M())
	for i := range urls {
		osrv, err := transport.NewServer(inner, i)
		if err != nil {
			t.Fatal(err)
		}
		ots := httptest.NewServer(osrv.Handler())
		t.Cleanup(ots.Close)
		urls[i] = ots.URL
	}
	cluster, err := topk.DialCluster(urls)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	srv, err := NewWithCluster(db, cluster)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// The simulation baseline from a plain server over the same data.
	plain, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(plain.Handler())
	t.Cleanup(pts.Close)

	var want distResp
	getJSON(t, pts.URL+"/v1/dist?k=5&protocol=bpa2", http.StatusOK, &want)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/dist?k=5&protocol=bpa2")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var got distResp
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Error(err)
				return
			}
			if len(got.Items) != len(want.Items) {
				t.Errorf("cluster answers: %d, want %d", len(got.Items), len(want.Items))
				return
			}
			for i := range want.Items {
				if got.Items[i].Item != want.Items[i].Item || got.Items[i].Score != want.Items[i].Score {
					t.Errorf("cluster item %d = %+v, simulation %+v", i, got.Items[i], want.Items[i])
				}
			}
			if got.Net.Messages != want.Net.Messages || got.Net.Payload != want.Net.Payload {
				t.Errorf("cluster accounting %+v, simulation %+v", got.Net, want.Net)
			}
		}()
	}
	wg.Wait()
}

// TestClusterMismatchRejected: NewWithCluster must refuse a cluster
// whose dimensions disagree with the local database — /v1/info would
// describe one dataset and /v1/dist answer about another.
func TestClusterMismatchRejected(t *testing.T) {
	db, err := topk.Generate(topk.GenSpec{Kind: topk.GenUniform, N: 100, M: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	other := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 50, M: 2, Seed: 1})
	urls := make([]string, other.M())
	for i := range urls {
		osrv, err := transport.NewServer(other, i)
		if err != nil {
			t.Fatal(err)
		}
		ots := httptest.NewServer(osrv.Handler())
		t.Cleanup(ots.Close)
		urls[i] = ots.URL
	}
	cluster, err := topk.DialCluster(urls)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	if _, err := NewWithCluster(db, cluster); err == nil {
		t.Error("mismatched cluster accepted")
	}
}

// TestDistClusterOutage: a dead owner behind a cluster-backed /v1/dist
// is an upstream failure and must answer 502, not blame the caller with
// a 400.
func TestDistClusterOutage(t *testing.T) {
	db, err := topk.Generate(topk.GenSpec{Kind: topk.GenUniform, N: 100, M: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	inner := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 100, M: 2, Seed: 9})
	urls := make([]string, inner.M())
	owners := make([]*httptest.Server, inner.M())
	for i := range urls {
		osrv, err := transport.NewServer(inner, i)
		if err != nil {
			t.Fatal(err)
		}
		owners[i] = httptest.NewServer(osrv.Handler())
		urls[i] = owners[i].URL
	}
	cluster, err := topk.DialCluster(urls)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	srv, err := NewWithCluster(db, cluster)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, o := range owners {
		o.Close()
	}
	var body struct {
		Error string `json:"error"`
	}
	getJSON(t, ts.URL+"/v1/dist?k=3", http.StatusBadGateway, &body)
	if body.Error == "" {
		t.Error("empty error body for owner outage")
	}
}

// TestExecStatus pins the error-to-status mapping: upstream owner
// failures (remote 5xx, unknown sessions, dead sockets) are 502,
// context expiry is 504, validation stays 400.
func TestExecStatus(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("dist: k=0 out of range"), http.StatusBadRequest},
		{fmt.Errorf("wrap: %w", context.Canceled), http.StatusGatewayTimeout},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{fmt.Errorf("dist: exchange with owner 1: %w", &transport.RemoteError{Status: 500, Msg: "boom"}), http.StatusBadGateway},
		{fmt.Errorf("dist: exchange with owner 0: %w", &transport.RemoteError{Status: 404, Msg: "unknown session"}), http.StatusBadGateway},
		// TPUT over negative scores is refused by the owners but is the
		// caller's choice of protocol: 400, over HTTP as in process.
		{fmt.Errorf("dist: batched exchange: %w", &transport.RemoteError{Status: 422, Msg: "negative"}), http.StatusBadRequest},
		{fmt.Errorf("dist: batched exchange: %w", transport.ErrNegativeScore), http.StatusBadRequest},
		{fmt.Errorf("owner 2: %w", &url.Error{Op: "Post", URL: "http://x", Err: fmt.Errorf("connection refused")}), http.StatusBadGateway},
		// A replica dying mid-query on pinned traffic is upstream too:
		// the client can simply retry the request.
		{fmt.Errorf("wrap: %w", &topk.OwnerFailedError{List: 1, Replica: 0, URL: "http://x", Err: fmt.Errorf("gone")}), http.StatusBadGateway},
	}
	for _, c := range cases {
		if got := execStatus(c.err); got != c.want {
			t.Errorf("execStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestDistErrors(t *testing.T) {
	ts := testServer(t)
	cases := []string{
		"",                              // missing k
		"k=0",                           // out of range
		"k=99",                          // k > n
		"k=2&protocol=zzz",              // unknown protocol
		"k=2&protocol=tput&scoring=min", // TPUT needs Sum
		"k=2&scoring=zzz",               // unknown scoring
		"k=2&tracker=zzz",               // unknown tracker
	}
	for _, q := range cases {
		var body struct {
			Error string `json:"error"`
		}
		getJSON(t, ts.URL+"/v1/dist?"+q, http.StatusBadRequest, &body)
		if body.Error == "" {
			t.Errorf("query %q: empty error body", q)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/healthz", "/v1/info", "/v1/topk", "/v1/dist", "/v1/explain", "/v1/algorithms"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Errorf("POST %s: Allow = %q", path, allow)
		}
	}
}

func TestExplain(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/explain?k=2&alg=bpa")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{"round", "top-2"} {
		if !strings.Contains(strings.ToLower(out), want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownPath(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentQueries hammers the handler from several goroutines; the
// database is immutable, so every response must be identical.
func TestConcurrentQueries(t *testing.T) {
	ts := testServer(t)
	const workers = 8
	done := make(chan topkResp, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var body topkResp
			resp, err := http.Get(ts.URL + "/v1/topk?k=3")
			if err != nil {
				done <- topkResp{}
				return
			}
			defer resp.Body.Close()
			_ = json.NewDecoder(resp.Body).Decode(&body)
			done <- body
		}()
	}
	var first topkResp
	for w := 0; w < workers; w++ {
		body := <-done
		if w == 0 {
			first = body
			continue
		}
		if len(body.Items) != len(first.Items) {
			t.Fatalf("diverging responses: %+v vs %+v", body, first)
		}
		for i := range body.Items {
			if body.Items[i] != first.Items[i] {
				t.Errorf("item %d: %+v != %+v", i, body.Items[i], first.Items[i])
			}
		}
	}
}

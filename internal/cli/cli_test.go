package cli

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// capture invokes a CLI entry point and returns exit code, stdout and
// stderr contents.
func capture(t *testing.T, fn func(args []string, stdout, stderr *bytes.Buffer) int, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := fn(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func benchEntry(args []string, stdout, stderr *bytes.Buffer) int { return Bench(args, stdout, stderr) }
func genEntry(args []string, stdout, stderr *bytes.Buffer) int   { return Gen(args, stdout, stderr) }
func queryEntry(args []string, stdout, stderr *bytes.Buffer) int { return Query(args, stdout, stderr) }

func TestBenchList(t *testing.T) {
	code, out, _ := capture(t, benchEntry, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fig3", "fig17", "example1", "trackers", "dht"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestBenchExample1(t *testing.T) {
	code, out, errOut := capture(t, benchEntry, "-exp", "example1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	// The table reproduces the paper's Example 2/3 counts.
	for _, want := range []string{"TA", "BPA2", "54", "27"} {
		if !strings.Contains(out, want) {
			t.Errorf("example1 output missing %q:\n%s", want, out)
		}
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	code, _, errOut := capture(t, benchEntry, "-exp", "nope")
	if code == 0 {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("stderr = %q", errOut)
	}
}

func TestBenchBadFlag(t *testing.T) {
	code, _, _ := capture(t, benchEntry, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestBenchOutDirAndPlot(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := capture(t, benchEntry,
		"-exp", "example2", "-out", dir, "-plot")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "legend:") {
		t.Error("plot not rendered")
	}
	for _, f := range []string{"example2.txt", "example2.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}

func TestBenchCSVMode(t *testing.T) {
	code, out, errOut := capture(t, benchEntry, "-exp", "table1", "-csv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.HasPrefix(out, "parameter,") {
		t.Errorf("csv output = %q", out)
	}
}

func TestGenAndQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.topk")
	code, out, errOut := capture(t, genEntry,
		"-kind", "uniform", "-n", "300", "-m", "3", "-o", dbPath)
	if code != 0 {
		t.Fatalf("gen exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "n=300 m=3") {
		t.Errorf("gen output = %q", out)
	}

	code, out, errOut = capture(t, queryEntry, "-db", dbPath, "-k", "5")
	if code != 0 {
		t.Fatalf("query exit %d: %s", code, errOut)
	}
	for _, want := range []string{"top-5 by sum using BPA2", "accesses:", "execution cost="} {
		if !strings.Contains(out, want) {
			t.Errorf("query output missing %q:\n%s", want, out)
		}
	}

	// Compare mode lists all five algorithms.
	code, out, _ = capture(t, queryEntry, "-db", dbPath, "-k", "5", "-compare")
	if code != 0 {
		t.Fatalf("compare exit %d", code)
	}
	for _, alg := range []string{"BPA2", "BPA", "TA", "FA", "Naive"} {
		if !strings.Contains(out, alg) {
			t.Errorf("compare missing %s", alg)
		}
	}

	// Distributed mode lists protocols.
	code, out, _ = capture(t, queryEntry, "-db", dbPath, "-k", "5", "-dist")
	if code != 0 {
		t.Fatalf("dist exit %d", code)
	}
	for _, p := range []string{"dist-bpa2", "tput"} {
		if !strings.Contains(out, p) {
			t.Errorf("dist missing %s", p)
		}
	}

	// Explain mode prints a trace.
	code, out, _ = capture(t, queryEntry, "-db", dbPath, "-k", "3", "-alg", "ta", "-explain")
	if code != 0 {
		t.Fatalf("explain exit %d", code)
	}
	if !strings.Contains(out, "execution trace") || !strings.Contains(out, "STOP") {
		t.Errorf("explain output missing trace:\n%s", out)
	}

	// Weighted scoring.
	code, out, _ = capture(t, queryEntry, "-db", dbPath, "-k", "2", "-scoring", "wsum", "-weights", "1,2,0")
	if code != 0 {
		t.Fatalf("wsum exit %d", code)
	}
	if !strings.Contains(out, "wsum(3)") {
		t.Errorf("wsum output:\n%s", out)
	}

	// Approximation flag.
	code, _, _ = capture(t, queryEntry, "-db", dbPath, "-k", "5", "-approx", "1.5")
	if code != 0 {
		t.Fatalf("approx exit %d", code)
	}
}

func TestQueryAllAlgorithmFlags(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.topk")
	if code, _, _ := capture(t, genEntry, "-n", "100", "-m", "3", "-o", dbPath); code != 0 {
		t.Fatal("gen failed")
	}
	for _, alg := range []string{"bpa2", "bpa", "ta", "fa", "naive", "BPA"} {
		code, out, errOut := capture(t, queryEntry, "-db", dbPath, "-k", "3", "-alg", alg)
		if code != 0 {
			t.Errorf("-alg %s: exit %d: %s", alg, code, errOut)
		}
		if !strings.Contains(out, "top-3") {
			t.Errorf("-alg %s: output missing answers", alg)
		}
	}
	for _, sc := range []string{"avg", "min", "max"} {
		code, _, errOut := capture(t, queryEntry, "-db", dbPath, "-k", "3", "-scoring", sc)
		if code != 0 {
			t.Errorf("-scoring %s: exit %d: %s", sc, code, errOut)
		}
	}
}

func TestGenCSVOutput(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "db.csv")
	code, _, errOut := capture(t, genEntry,
		"-kind", "gaussian", "-n", "50", "-m", "2", "-csv", "-o", csvPath)
	if code != 0 {
		t.Fatalf("gen exit %d: %s", code, errOut)
	}
	code, out, errOut := capture(t, queryEntry, "-csv", csvPath, "-k", "3")
	if code != 0 {
		t.Fatalf("query exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "n=50, m=2") {
		t.Errorf("query output = %q", out)
	}
}

func TestGenErrors(t *testing.T) {
	if code, _, _ := capture(t, genEntry); code == 0 {
		t.Error("missing -o accepted")
	}
	if code, _, _ := capture(t, genEntry, "-kind", "zzz", "-o", "x"); code == 0 {
		t.Error("unknown kind accepted")
	}
	if code, _, _ := capture(t, genEntry, "-kind", "correlated", "-alpha", "7", "-o", filepath.Join(t.TempDir(), "x")); code == 0 {
		t.Error("bad alpha accepted")
	}
}

// startOwnerCluster builds owner handlers for every list of a shared
// generated database and serves them with httptest, returning the
// -owners flag value.
func startOwnerCluster(t *testing.T, m int) string {
	t.Helper()
	urls := make([]string, m)
	for i := 0; i < m; i++ {
		handler, addr, err := BuildOwnerHandler([]string{
			"-gen", "uniform", "-n", "400", "-m", fmt.Sprint(m), "-seed", "11",
			"-list", fmt.Sprint(i), "-addr", "localhost:7777",
		}, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		if addr != "localhost:7777" {
			t.Fatalf("addr = %q", addr)
		}
		srv := httptest.NewServer(handler)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return strings.Join(urls, ",")
}

func TestOwnerHandlerAndClusterQuery(t *testing.T) {
	owners := startOwnerCluster(t, 3)

	code, out, errOut := capture(t, queryEntry, "-owners", owners, "-k", "5")
	if code != 0 {
		t.Fatalf("cluster query exit %d: %s", code, errOut)
	}
	for _, want := range []string{"top-5 by sum using dist-bpa2 over 3 owners", "messages=", "per-owner messages:"} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster output missing %q:\n%s", want, out)
		}
	}

	// Every protocol runs over the same cluster (owner state resets
	// between queries).
	for _, proto := range []string{"ta", "bpa", "bpa2", "tput", "tput-a"} {
		code, out, errOut := capture(t, queryEntry, "-owners", owners, "-k", "3", "-protocol", proto)
		if code != 0 {
			t.Errorf("-protocol %s: exit %d: %s", proto, code, errOut)
			continue
		}
		if !strings.Contains(out, "top-3") {
			t.Errorf("-protocol %s: output missing answers:\n%s", proto, out)
		}
	}
}

func TestOwnerErrors(t *testing.T) {
	// The input flags -db, -csv, -gen and -stripe are mutually
	// exclusive; the conflict error must name all four so the operator
	// does not have to rediscover the set by trial.
	const exclusive = "use exactly one of -db, -csv, -gen and -stripe"
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error; empty means any error
	}{
		{name: "no input", args: []string{}, wantErr: "-db, -csv, -gen or -stripe"},
		{name: "db plus csv", args: []string{"-db", "a", "-csv", "b"}, wantErr: exclusive},
		{name: "gen plus db", args: []string{"-gen", "uniform", "-db", "x"}, wantErr: exclusive},
		{name: "stripe plus db", args: []string{"-stripe", "a", "-db", "b"}, wantErr: exclusive},
		{name: "stripe plus csv", args: []string{"-stripe", "a", "-csv", "b"}, wantErr: exclusive},
		{name: "stripe plus gen", args: []string{"-stripe", "a", "-gen", "uniform"}, wantErr: exclusive},
		{name: "all four", args: []string{"-db", "a", "-csv", "b", "-gen", "uniform", "-stripe", "c"}, wantErr: exclusive},
		{name: "stripe-cache without stripe", args: []string{"-gen", "uniform", "-stripe-cache", "1024"}, wantErr: "-stripe-cache"},
		{name: "negative stripe-cache", args: []string{"-stripe", "a", "-stripe-cache", "-1"}, wantErr: "non-negative"},
		{name: "unknown gen kind", args: []string{"-gen", "zzz"}},
		{name: "list out of range", args: []string{"-gen", "uniform", "-n", "50", "-m", "2", "-list", "5"}},
		{name: "missing db file", args: []string{"-db", "definitely-absent.topk"}},
		{name: "missing stripe file", args: []string{"-stripe", "definitely-absent.stripe"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := BuildOwnerHandler(tc.args, os.Stderr)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestGenStripeExclusive(t *testing.T) {
	code, _, errOut := capture(t, genEntry,
		"-n", "10", "-m", "2", "-o", filepath.Join(t.TempDir(), "x"), "-csv", "-stripe")
	if code == 0 {
		t.Fatal("-csv with -stripe accepted")
	}
	if !strings.Contains(errOut, "-csv") || !strings.Contains(errOut, "-stripe") {
		t.Fatalf("stderr %q does not name both flags", errOut)
	}
}

// TestOwnerStripeWarmRestart is the end-to-end warm-restart scenario:
// topk-gen -stripe emits the file, a cluster of topk-owner -stripe
// processes serves a distributed query over it, the owners are killed,
// and restarted owners reopen the same file — no reload — and pass the
// dial handshake and a fresh query with the same answers.
func TestOwnerStripeWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.stripe")
	if code, _, errOut := capture(t, genEntry,
		"-n", "300", "-m", "2", "-seed", "7", "-stripe", "-o", path); code != 0 {
		t.Fatalf("gen -stripe: %s", errOut)
	}

	serve := func() (string, func()) {
		urls := make([]string, 2)
		var servers []*httptest.Server
		for i := range urls {
			handler, _, err := BuildOwnerHandler([]string{
				"-stripe", path, "-stripe-cache", "1048576", "-list", fmt.Sprint(i),
			}, os.Stderr)
			if err != nil {
				t.Fatalf("owner %d over stripe: %v", i, err)
			}
			srv := httptest.NewServer(handler)
			servers = append(servers, srv)
			urls[i] = srv.URL
		}
		stop := func() {
			for _, s := range servers {
				s.Close()
			}
		}
		return strings.Join(urls, ","), stop
	}

	owners, stop := serve()
	code, firstOut, errOut := capture(t, queryEntry, "-owners", owners, "-k", "4")
	if code != 0 {
		t.Fatalf("query over stripe owners: %s", errOut)
	}
	stop() // kill the owners

	owners, stop = serve() // restart: reopens the same file
	defer stop()
	code, secondOut, errOut := capture(t, queryEntry, "-owners", owners, "-k", "4")
	if code != 0 {
		t.Fatalf("query after restart: %s", errOut)
	}
	// Everything but the wall-clock elapsed field must be identical —
	// answers, network message counts, per-owner traffic.
	strip := regexp.MustCompile(`elapsed=\S+`)
	if a, b := strip.ReplaceAllString(firstOut, ""), strip.ReplaceAllString(secondOut, ""); a != b {
		t.Fatalf("answers changed across restart:\nbefore: %s\nafter:  %s", firstOut, secondOut)
	}
}

func TestClusterQueryErrors(t *testing.T) {
	owners := startOwnerCluster(t, 2)
	cases := [][]string{
		{"-owners", owners, "-db", "also.topk"},          // remote plus local input
		{"-owners", owners, "-protocol", "zzz"},          // unknown protocol
		{"-owners", owners, "-k", "0"},                   // bad k
		{"-owners", "localhost:1", "-k", "3"},            // unreachable owner
		{"-owners", owners, "-k", "3", "-scoring", "zz"}, // unknown scoring
		{"-owners", owners, "-k", "3", "-explain"},       // local-mode flag
		{"-owners", owners, "-k", "3", "-compare"},       // local-mode flag
		{"-owners", owners, "-k", "3", "-alg", "ta"},     // local-mode flag
		{"-owners", owners, "-k", "3", "-approx", "1.5"}, // local-mode flag
		{"-owners", owners, "-k", "3", "-dist"},          // local-mode flag
	}
	for _, args := range cases {
		if code, _, _ := capture(t, queryEntry, args...); code == 0 {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.topk")
	if code, _, _ := capture(t, genEntry, "-n", "20", "-m", "2", "-o", dbPath); code != 0 {
		t.Fatal("gen failed")
	}
	cases := [][]string{
		{},                                                     // no input
		{"-db", dbPath, "-csv", "also.csv"},                    // both inputs
		{"-db", filepath.Join(dir, "absent")},                  // missing file
		{"-db", dbPath, "-alg", "zzz"},                         // unknown algorithm
		{"-db", dbPath, "-scoring", "zzz"},                     // unknown scoring
		{"-db", dbPath, "-scoring", "wsum"},                    // wsum without weights
		{"-db", dbPath, "-k", "0"},                             // bad k
		{"-db", dbPath, "-scoring", "wsum", "-weights", "1,x"}, // bad weight
	}
	for _, args := range cases {
		if code, _, _ := capture(t, queryEntry, args...); code == 0 {
			t.Errorf("args %v accepted", args)
		}
	}
}

// startReplicatedOwners serves list 0 of a shared generated database
// from two owner processes (labelled a and b) and list 1 from one,
// returning the -owners topology string.
func startReplicatedOwners(t *testing.T) string {
	t.Helper()
	serve := func(list int, replica string) string {
		handler, _, err := BuildOwnerHandler([]string{
			"-gen", "uniform", "-n", "400", "-m", "2", "-seed", "11",
			"-list", fmt.Sprint(list), "-replica", replica,
		}, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(handler)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	return serve(0, "a") + "|" + serve(0, "b") + "," + serve(1, "a")
}

// TestClusterQueryReplicated: the |-separated replica syntax, routing
// policies and the -verbose health table all work end to end, and the
// answers match the flat single-owner cluster.
func TestClusterQueryReplicated(t *testing.T) {
	topo := startReplicatedOwners(t)
	for _, policy := range []string{"primary", "round-robin", "fastest"} {
		code, out, errOut := capture(t, queryEntry,
			"-owners", topo, "-k", "5", "-policy", policy, "-verbose")
		if code != 0 {
			t.Fatalf("policy %s: exit %d: %s", policy, code, errOut)
		}
		for _, want := range []string{
			"top-5 by sum using dist-bpa2 over 2 owners",
			"recovery: restarts=0 handoffs=0 failed-replicas=0 backpressure=0",
			"replica health (policy " + policy + ")",
			"list 0 replica 1",
			"healthy",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("policy %s: output missing %q:\n%s", policy, want, out)
			}
		}
	}
	// -restart parses and a healthy run stays quiet about recovery
	// unless -verbose asked for it.
	code, out, errOut := capture(t, queryEntry, "-owners", topo, "-k", "5", "-restart", "failed")
	if code != 0 {
		t.Fatalf("-restart failed: exit %d: %s", code, errOut)
	}
	if strings.Contains(out, "recovery:") {
		t.Errorf("healthy non-verbose run printed recovery line:\n%s", out)
	}
	// Unknown policy fails loudly.
	if code, _, _ := capture(t, queryEntry, "-owners", topo, "-k", "3", "-policy", "zzz"); code == 0 {
		t.Error("unknown policy accepted")
	}
	// Unknown restart policy fails loudly.
	if code, _, _ := capture(t, queryEntry, "-owners", topo, "-k", "3", "-restart", "zzz"); code == 0 {
		t.Error("unknown restart policy accepted")
	}
	// Cluster-only flags without -owners fail loudly instead of being
	// silently ignored.
	if code, _, _ := capture(t, queryEntry, "-db", "x", "-restart", "failed"); code == 0 {
		t.Error("-restart without -owners accepted")
	}
	// Malformed topology fails loudly, naming the offending list/token.
	code, _, errOut = capture(t, queryEntry, "-owners", "a||b", "-k", "3")
	if code == 0 {
		t.Error("malformed topology accepted")
	}
	for _, want := range []string{"list 0", "token 1"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("topology error missing %q: %s", want, errOut)
		}
	}
}

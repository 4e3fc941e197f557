package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"topk"
)

// Query is the topk-query entry point: it runs a top-k query against a
// database file and prints answers plus access statistics.
func Query(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topk-query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dbPath   = fs.String("db", "", "binary database file (from topk-gen)")
		csvPath  = fs.String("csv", "", "CSV database file (column form)")
		k        = fs.Int("k", 10, "number of answers")
		algFlag  = fs.String("alg", "bpa2", "algorithm: bpa2, bpa, ta, fa, naive, nra, ca")
		scoring  = fs.String("scoring", "sum", "scoring function: sum, avg, min, max, wsum")
		weights  = fs.String("weights", "", "comma-separated weights for -scoring wsum")
		theta    = fs.Float64("approx", 0, "approximation factor θ >= 1 (0 = exact)")
		compare  = fs.Bool("compare", false, "run every algorithm and print a comparison")
		distFlag = fs.Bool("dist", false, "run the distributed protocols and print message counts")
		owners   = fs.String("owners", "", "cluster topology for cluster mode: lists comma-separated, replicas of a list |-separated (host:a|host:b,host:c); list i's addresses must serve list i")
		proto    = fs.String("protocol", "bpa2", "distributed protocol for -owners: bpa2, bpa, ta, tput, tput-a")
		policy   = fs.String("policy", "primary", "replica routing policy for -owners: primary, round-robin, fastest")
		restart  = fs.String("restart", "off", "restart policy for -owners: off, failed (rerun queries that died on a failing replica), always")
		verbose  = fs.Bool("verbose", false, "with -owners, also print the per-replica health table (state, EWMA latency, failures, failovers)")
		trace    = fs.Bool("trace", false, "with -owners, trace the query and print the per-exchange span table (round, owner, replica, kind, bytes, time)")
		explain  = fs.Bool("explain", false, "print the round-by-round threshold walkthrough")
		follow   = fs.Bool("follow", false, "follow a standing live query on a topk-serve -live instance and render the ranking as it changes; needs -serve")
		serveURL = fs.String("serve", "", "base URL of the topk-serve -live instance for -follow, e.g. http://localhost:8080")
		liveName = fs.String("query", "", "standing-query name for -follow (empty derives one from k/protocol/scoring)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *follow || *serveURL != "" || *liveName != "" {
		// Live-follow mode subscribes to a server-side standing query;
		// flags of the other modes must fail loudly, not be silently
		// dropped — and the follow flags themselves only work together.
		if !*follow {
			set := "-serve"
			if *liveName != "" {
				set = "-query"
			}
			fmt.Fprintf(stderr, "topk-query: %s follows a live server; it needs -follow\n", set)
			return 1
		}
		if *serveURL == "" {
			fmt.Fprintln(stderr, "topk-query: -follow needs -serve, the URL of a topk-serve -live instance")
			return 1
		}
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "db", "csv", "owners", "alg", "approx", "compare", "dist",
				"explain", "trace", "verbose", "policy", "restart":
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(stderr, "topk-query: -%s does not apply with -follow; the standing query runs on the -serve server\n", conflict)
			return 1
		}
		return followQuery(*serveURL, *liveName, *proto, *scoring, *weights, *k, stdout, stderr)
	}

	if *owners != "" {
		if *dbPath != "" || *csvPath != "" {
			fmt.Fprintln(stderr, "topk-query: -owners queries remote lists; drop -db/-csv")
			return 1
		}
		// Cluster mode runs exactly one distributed protocol; flags of
		// the local modes must fail loudly, not be silently dropped.
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "alg", "approx", "compare", "dist", "explain":
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(stderr, "topk-query: -%s applies to local databases; with -owners use -protocol\n", conflict)
			return 1
		}
		sc, err := buildScoring(*scoring, *weights)
		if err != nil {
			fmt.Fprintf(stderr, "topk-query: %v\n", err)
			return 1
		}
		return clusterQuery(*owners, *proto, *policy, *restart, *k, *verbose, *trace, sc, stdout, stderr)
	}

	// -restart only means something against a cluster: it is a recovery
	// policy for replica failures, which local databases cannot have.
	// -trace is cluster-only too: the local walkthrough is -explain.
	var clusterOnly string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "restart", "policy", "trace":
			clusterOnly = f.Name
		}
	})
	if clusterOnly != "" {
		fmt.Fprintf(stderr, "topk-query: -%s applies to cluster mode; it needs -owners\n", clusterOnly)
		return 1
	}

	db, err := loadDB(*dbPath, *csvPath)
	if err != nil {
		fmt.Fprintf(stderr, "topk-query: %v\n", err)
		return 1
	}
	sc, err := buildScoring(*scoring, *weights)
	if err != nil {
		fmt.Fprintf(stderr, "topk-query: %v\n", err)
		return 1
	}
	// Local queries are ctx-bound too: Ctrl-C / SIGTERM cancels the run
	// at access granularity instead of killing the process mid-scan.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *compare {
		fmt.Fprintf(stdout, "%-6s  %12s  %12s  %12s  %12s  %14s  %10s\n",
			"alg", "sorted", "random", "direct", "total", "cost", "time")
		for _, alg := range topk.Algorithms() {
			res, err := db.Exec(ctx, topk.Query{K: *k, Algorithm: alg, Scoring: sc, Approximation: *theta})
			if err != nil {
				fmt.Fprintf(stderr, "topk-query: %v: %v\n", alg, err)
				return 1
			}
			s := res.Stats
			fmt.Fprintf(stdout, "%-6s  %12d  %12d  %12d  %12d  %14.0f  %10s\n",
				alg, s.SortedAccesses, s.RandomAccesses, s.DirectAccesses,
				s.TotalAccesses(), s.Cost, s.Duration.Round(1000))
		}
		return 0
	}

	if *distFlag {
		fmt.Fprintf(stdout, "%-10s  %12s  %12s  %8s\n", "protocol", "messages", "payload", "rounds")
		for _, p := range topk.Protocols() {
			res, err := db.ExecDistributed(ctx, topk.Query{K: *k, Scoring: sc}, p)
			if err != nil {
				fmt.Fprintf(stdout, "%-10s  skipped: %v\n", p, err)
				continue
			}
			fmt.Fprintf(stdout, "%-10s  %12d  %12d  %8d\n", p, res.Stats.Net.Messages, res.Stats.Net.Payload, res.Stats.Net.Rounds)
		}
		return 0
	}

	alg, err := parseAlg(*algFlag)
	if err != nil {
		fmt.Fprintf(stderr, "topk-query: %v\n", err)
		return 1
	}
	q := topk.Query{K: *k, Algorithm: alg, Scoring: sc, Approximation: *theta}
	var res *topk.Result
	if *explain {
		res, err = db.Explain(q, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "topk-query: query: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout)
	} else {
		res, err = db.Exec(ctx, q)
		if err != nil {
			fmt.Fprintf(stderr, "topk-query: query: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "top-%d by %s using %s (n=%d, m=%d):\n", *k, sc.Name(), alg, db.N(), db.M())
	for i, it := range res.Items {
		fmt.Fprintf(stdout, "%3d. %-16s score=%.6g\n", i+1, it.Name, it.Score)
	}
	s := res.Stats
	fmt.Fprintf(stdout, "\naccesses: sorted=%d random=%d direct=%d total=%d\n",
		s.SortedAccesses, s.RandomAccesses, s.DirectAccesses, s.TotalAccesses())
	fmt.Fprintf(stdout, "execution cost=%.0f  stop position=%d  rounds=%d  time=%s\n",
		s.Cost, s.StopPosition, s.Rounds, s.Duration.Round(1000))
	return 0
}

// clusterQuery runs one distributed protocol against real HTTP owner
// nodes (cmd/topk-owner) and prints answers plus the network profile.
// The owners string is a replica topology (lists comma-separated,
// replicas |-separated); exchanges are routed across each list's
// replicas by the chosen policy and fail over when a replica dies
// mid-query. Ctrl-C / SIGTERM cancels the in-flight query (releasing
// its owner-side session) instead of killing the process mid-exchange.
func clusterQuery(owners, proto, policy, restart string, k int, verbose, trace bool, sc topk.Scoring, stdout, stderr io.Writer) int {
	p, err := topk.ParseProtocol(proto)
	if err != nil {
		fmt.Fprintf(stderr, "topk-query: %v\n", err)
		return 1
	}
	topo, err := topk.ParseTopology(owners)
	if err != nil {
		fmt.Fprintf(stderr, "topk-query: %v\n", err)
		return 1
	}
	pol, err := topk.ParseRoutingPolicy(policy)
	if err != nil {
		fmt.Fprintf(stderr, "topk-query: %v\n", err)
		return 1
	}
	rp, err := topk.ParseRestartPolicy(restart)
	if err != nil {
		fmt.Fprintf(stderr, "topk-query: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cluster, err := topk.DialClusterConfig(ctx, topk.ClusterConfig{
		Topology: topo,
		Policy:   pol,
		Restart:  rp,
	})
	if err != nil {
		fmt.Fprintf(stderr, "topk-query: %v\n", err)
		return 1
	}
	defer cluster.Close()
	var opts []topk.ExecOption
	if trace {
		opts = append(opts, topk.WithTrace())
	}
	res, err := cluster.Exec(ctx, topk.Query{K: k, Scoring: sc}, p, opts...)
	if err != nil {
		fmt.Fprintf(stderr, "topk-query: query: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "top-%d by %s using %s over %d owners (n=%d):\n",
		k, sc.Name(), p, cluster.M(), cluster.N())
	for i, it := range res.Items {
		fmt.Fprintf(stdout, "%3d. item-%-12d score=%.6g\n", i+1, int(it.Item), it.Score)
	}
	s := res.Stats
	fmt.Fprintf(stdout, "\nnetwork: messages=%d payload=%d rounds=%d exchanges=%d accesses=%d elapsed=%s\n",
		s.Net.Messages, s.Net.Payload, s.Net.Rounds, s.Net.Exchanges, s.Net.TotalAccesses, s.Net.Elapsed.Round(100))
	fmt.Fprintf(stdout, "per-owner messages: %v\n", s.Net.PerOwner)
	renderRecovery(stdout, s.Recovery, verbose)
	if trace {
		renderTrace(stdout, res.Stats.Trace)
	}
	if verbose {
		fmt.Fprintf(stdout, "\nreplica health (policy %s):\n", pol)
		for _, h := range cluster.Health() {
			state := "healthy"
			if !h.Healthy {
				state = "DOWN"
			}
			fmt.Fprintf(stdout, "  list %d replica %d %-28s %-7s breaker=%-9s ewma=%-10s failures=%d failovers=%d\n",
				h.List, h.Replica, h.URL, state, h.Breaker, h.Latency.Round(time.Microsecond), h.Failures, h.Failovers)
		}
	}
	return 0
}

// renderRecovery is the one renderer of the recovery line, shared by
// the verbose path (always print it) and the default path (print it
// only when a failure was absorbed: the answer was correct, but the
// operator should learn a replica is dying). It reports whether the
// line was printed.
func renderRecovery(w io.Writer, rec topk.RecoveryStats, verbose bool) bool {
	if !verbose && rec == (topk.RecoveryStats{}) {
		return false
	}
	fmt.Fprintf(w, "recovery: restarts=%d handoffs=%d failed-replicas=%d backpressure=%d\n",
		rec.Restarts, rec.Handoffs, rec.FailedReplicas, rec.Backpressure)
	return true
}

// renderTrace prints the traced run's per-exchange span table in
// session order — the explain-style view of where the query's bytes
// and time went, one row per wire exchange.
func renderTrace(w io.Writer, spans []topk.TraceSpan) {
	fmt.Fprintf(w, "\ntrace (%d exchanges):\n", len(spans))
	fmt.Fprintf(w, "%4s  %5s  %5s  %7s  %-7s  %4s  %8s  %8s  %10s  %s\n",
		"seq", "round", "owner", "replica", "kind", "msgs", "req-B", "resp-B", "time", "notes")
	for _, sp := range spans {
		var notes []string
		if sp.Attempts > 1 {
			notes = append(notes, fmt.Sprintf("attempts=%d", sp.Attempts))
		}
		if sp.FailedOver {
			notes = append(notes, "failover")
		}
		if sp.Handoff {
			notes = append(notes, "handoff")
		}
		if sp.Err != "" {
			notes = append(notes, "err="+sp.Err)
		}
		fmt.Fprintf(w, "%4d  %5d  %5d  %7d  %-7s  %4d  %8d  %8d  %10s  %s\n",
			sp.Seq, sp.Round, sp.Owner, sp.Replica, sp.Kind, sp.Msgs,
			sp.ReqBytes, sp.RespBytes, sp.Duration.Round(time.Microsecond), strings.Join(notes, " "))
	}
}

func loadDB(dbPath, csvPath string) (*topk.Database, error) {
	switch {
	case dbPath != "" && csvPath != "":
		return nil, fmt.Errorf("use only one of -db and -csv")
	case dbPath != "":
		db, err := topk.LoadFile(dbPath)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", dbPath, err)
		}
		return db, nil
	case csvPath != "":
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", csvPath, err)
		}
		defer f.Close()
		db, err := topk.ReadCSV(f)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", csvPath, err)
		}
		return db, nil
	default:
		return nil, fmt.Errorf("missing -db or -csv input")
	}
}

func parseAlg(s string) (topk.Algorithm, error) { return topk.ParseAlgorithm(s) }

func buildScoring(name, weightsCSV string) (topk.Scoring, error) {
	ws, err := parseWeights(weightsCSV)
	if err != nil {
		return nil, err
	}
	return topk.ParseScoring(name, ws)
}

func parseWeights(weightsCSV string) ([]float64, error) {
	if weightsCSV == "" {
		return nil, nil
	}
	parts := strings.Split(weightsCSV, ",")
	ws := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q: %w", p, err)
		}
		ws[i] = v
	}
	return ws, nil
}

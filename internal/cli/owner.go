package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"time"

	"topk/internal/chaos"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/store"
	"topk/internal/store/stripe"
	"topk/internal/transport"
)

// ownerDaemon is a built topk-owner ready to listen.
type ownerDaemon struct {
	handler   http.Handler
	addr      string
	pprofAddr string
	log       *slog.Logger
	// owner is the served owner; its sessions are torn down on a
	// graceful drain.
	owner *transport.Owner
	// drain bounds how long in-flight requests may run after SIGTERM.
	drain time.Duration
	// verified marks a -verify run: the integrity check already passed
	// and the daemon should report success instead of serving.
	verified bool
}

// BuildOwnerHandler parses topk-owner's flags and returns the owner's
// HTTP handler plus the listen address. Split from Owner so tests can
// exercise flag handling and the handler without binding a socket.
func BuildOwnerHandler(args []string, stderr io.Writer) (http.Handler, string, error) {
	d, err := buildOwner(args, stderr)
	if err != nil {
		return nil, "", err
	}
	return d.handler, d.addr, nil
}

// buildOwner is BuildOwnerHandler plus the daemon trimmings: the
// structured logger (wired into the owner's session lifecycle events)
// and the opt-in pprof listener address.
func buildOwner(args []string, stderr io.Writer) (*ownerDaemon, error) {
	fs := flag.NewFlagSet("topk-owner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dbPath   = fs.String("db", "", "binary database file (from topk-gen)")
		csvPath  = fs.String("csv", "", "CSV database file (column form)")
		stripeP  = fs.String("stripe", "", "stripe database file (from topk-gen -stripe); served from disk through a bounded cache, reopened warm on restart")
		stripeC  = fs.Int64("stripe-cache", 0, "stripe-cache budget in bytes for -stripe (0 means the 64 MiB default)")
		genKind  = fs.String("gen", "", "own a list of a generated database instead: uniform, gaussian, correlated")
		n        = fs.Int("n", 10_000, "items per list for -gen")
		m        = fs.Int("m", 2, "lists for -gen")
		alpha    = fs.Float64("alpha", 0.01, "correlation strength for -gen correlated")
		seed     = fs.Int64("seed", 1, "RNG seed for -gen (every owner of a cluster must use the same)")
		index    = fs.Int("list", 0, "index of the list this owner serves")
		replica  = fs.String("replica", "", "replica label within this list's replica set (informational; advertised in /stats)")
		addr     = fs.String("addr", "localhost:9000", "listen address")
		ttl      = fs.Duration("session-ttl", transport.DefaultSessionTTL, "evict sessions idle for this long (0 disables); reclaims sessions abandoned by crashed originators")
		maxInfl  = fs.Int("max-inflight", 0, "admission control: bound on concurrently served exchanges; excess is shed with a typed retry-after answer (0 means the default, negative disables)")
		maxSess  = fs.Int("max-sessions", 0, "bound on concurrently open query sessions; opens beyond it are shed with retry-after (0 means the default, negative disables)")
		mutable  = fs.Bool("mutable", false, "serve the list as updatable: accept the live plane's feed-sequenced update batches and notification filters")
		verify   = fs.Bool("verify", false, "with -stripe: verify every block checksum against the file, report, and exit without serving")
		drain    = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget: on SIGTERM stop admitting, let in-flight requests finish for this long, then close")
		chaosS   = fs.String("chaos", "", "inject server-side faults from a seeded schedule, e.g. seed=42,all=0.02,delay=0.1 (keys: seed, delay, drop, stall, truncate, corrupt, err5xx, partition, all, delay-dur, partition-dur, stall-cap, data-plane-only); testing only")
		logLevel = fs.String("log-level", "info", "structured log level on stderr: debug, info, warn, error, off")
		pprofA   = fs.String("pprof", "", "serve net/http/pprof on this extra address (e.g. localhost:6060); empty disables")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	logger, err := newDaemonLogger(*logLevel, stderr)
	if err != nil {
		return nil, err
	}

	inputs := 0
	for _, v := range []string{*dbPath, *csvPath, *genKind, *stripeP} {
		if v != "" {
			inputs++
		}
	}
	if inputs > 1 {
		return nil, fmt.Errorf("use exactly one of -db, -csv, -gen and -stripe")
	}
	if *stripeC != 0 && *stripeP == "" {
		return nil, fmt.Errorf("-stripe-cache only applies with -stripe")
	}
	if *stripeC < 0 {
		return nil, fmt.Errorf("-stripe-cache %d must be non-negative", *stripeC)
	}
	if *verify && *stripeP == "" {
		return nil, fmt.Errorf("-verify only applies with -stripe")
	}
	if *mutable && *stripeP != "" {
		return nil, fmt.Errorf("-mutable does not apply with -stripe: stripe-backed owners are read-only")
	}

	var db *list.Database
	switch {
	case *genKind != "":
		var kind gen.Kind
		kind, err = parseGenKind(*genKind)
		if err != nil {
			return nil, err
		}
		db, err = gen.Generate(gen.Spec{Kind: kind, N: *n, M: *m, Alpha: *alpha, Seed: *seed})
	case *dbPath != "":
		db, err = store.LoadFile(*dbPath)
	case *csvPath != "":
		var f *os.File
		f, err = os.Open(*csvPath)
		if err == nil {
			db, err = store.ReadColumnsCSV(f)
			f.Close()
		}
	case *stripeP != "":
		// The stripe DB (and its descriptor) lives for the daemon's
		// lifetime: only the footer is resident now; data blocks are
		// paged in per query, which is what makes restarts warm.
		var sdb *stripe.DB
		sdb, err = stripe.Open(*stripeP, stripe.Options{CacheBytes: *stripeC})
		if err == nil && *verify {
			// Integrity check mode: walk every block against its stored
			// checksum and exit without serving.
			verr := sdb.Verify()
			sdb.Close()
			if verr != nil {
				return nil, fmt.Errorf("stripe verify %s: %w", *stripeP, verr)
			}
			return &ownerDaemon{log: logger, verified: true}, nil
		}
		if err == nil {
			db, err = sdb.Database()
		}
	default:
		return nil, fmt.Errorf("missing input: use one of -db, -csv, -gen or -stripe")
	}
	if err != nil {
		return nil, err
	}

	srv, err := transport.NewServer(db, *index)
	if err != nil {
		return nil, err
	}
	srv.Owner().SetSessionTTL(*ttl)
	srv.Owner().SetReplicaID(*replica)
	srv.Owner().SetLogger(logger)
	if *maxInfl != 0 {
		srv.Owner().SetMaxInflight(*maxInfl)
	}
	if *maxSess != 0 {
		srv.Owner().SetMaxSessions(*maxSess)
	}
	if *mutable {
		if err := srv.Owner().EnableUpdates(); err != nil {
			return nil, err
		}
	}
	handler := http.Handler(srv.Handler())
	if *chaosS != "" {
		ccfg, cerr := chaos.ParseSpec(*chaosS)
		if cerr != nil {
			return nil, cerr
		}
		logger.Warn("chaos fault injection armed", "spec", *chaosS)
		handler = chaos.Handler(handler, chaos.New(ccfg))
	}
	return &ownerDaemon{handler: handler, addr: *addr, pprofAddr: *pprofA, log: logger,
		owner: srv.Owner(), drain: *drain}, nil
}

// Owner is the topk-owner entry point: it loads (or generates) a
// database, takes ownership of one of its lists, and serves the
// distributed protocols' owner side over HTTP until terminated.
func Owner(args []string, stdout, stderr io.Writer) int {
	d, err := buildOwner(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "topk-owner: %v\n", err)
		return 1
	}
	if d.verified {
		fmt.Fprintln(stdout, "topk-owner: stripe verify: ok")
		return 0
	}
	startPprof(d.pprofAddr, d.log)
	onStarted := func(addr string) {
		fmt.Fprintf(stdout, "topk-owner: listening on http://%s (endpoints: /rpc/{kind}?sid=[&tracker=] /session/close /session/sync /stats /healthz /metrics)\n", addr)
	}
	// SIGTERM drains gracefully: stop admitting, let in-flight requests
	// finish within the drain budget, then discard leftover sessions.
	onDrained := func() { d.owner.CloseAllSessions() }
	if err := serveUntilShutdown(context.Background(), d.addr, d.handler, d.drain, d.log, onStarted, onDrained); err != nil {
		fmt.Fprintf(stderr, "topk-owner: %v\n", err)
		return 1
	}
	return 0
}

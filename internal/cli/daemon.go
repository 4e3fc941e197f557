package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// newDaemonLogger builds the daemons' structured logger from the
// -log-level flag: a text handler writing to w at the given level, or
// a discard logger for "off". The daemons log recovery-relevant events
// — session open/close/evict, replica health transitions and session
// handoffs — with session/list/replica attributes.
func newDaemonLogger(level string, w io.Writer) (*slog.Logger, error) {
	var l slog.Level
	switch strings.ToLower(strings.TrimSpace(level)) {
	case "off", "none":
		return slog.New(slog.DiscardHandler), nil
	case "debug":
		l = slog.LevelDebug
	case "", "info":
		l = slog.LevelInfo
	case "warn", "warning":
		l = slog.LevelWarn
	case "error":
		l = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn, error or off)", level)
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: l})), nil
}

// pprofMux is the opt-in debug mux served on the -pprof address:
// net/http/pprof's handlers on a dedicated mux, so profiling never
// rides on the data-plane listener and stays off unless asked for.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveUntilShutdown runs handler on addr until SIGTERM/SIGINT (or ctx
// cancellation), then drains gracefully: the listener closes at once so
// no new exchange is admitted, in-flight requests get up to drain to
// finish, and only then does onDrained run (session teardown, cluster
// close). A drain that overruns its budget is cut off hard. Returns nil
// on a clean signal-driven shutdown; onStarted (if non-nil) runs once
// the listener is bound, with the bound address.
func serveUntilShutdown(ctx context.Context, addr string, handler http.Handler, drain time.Duration, log *slog.Logger, onStarted func(string), onDrained func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The signal handler is installed before onStarted announces the
	// bound address: from the moment a caller can reach the daemon, a
	// SIGTERM drains instead of killing.
	sctx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, os.Interrupt)
	defer stop()
	if onStarted != nil {
		onStarted(ln.Addr().String())
	}
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener died on its own; nothing to drain.
		return err
	case <-sctx.Done():
	}
	stop() // restore default signal disposition: a second signal kills
	log.Info("shutdown signal received; draining", "drain", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Warn("drain budget exhausted; closing connections", "err", err)
		srv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if onDrained != nil {
		onDrained()
	}
	log.Info("shutdown complete")
	return nil
}

// startPprof serves the debug mux on addr in the background when the
// -pprof flag was set; empty means off. A failed debug listener is
// logged, not fatal — the data plane is unaffected either way.
func startPprof(addr string, log *slog.Logger) {
	if addr == "" {
		return
	}
	log.Info("pprof debug listener", "addr", addr)
	go func() {
		if err := http.ListenAndServe(addr, pprofMux()); err != nil {
			log.Error("pprof listener failed", "addr", addr, "err", err)
		}
	}()
}

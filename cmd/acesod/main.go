// Command acesod is the Aceso planning daemon: a long-running HTTP
// service that turns the batch configuration search into an on-demand
// planner. POST /v1/plan runs a deadline-bounded search (or replays a
// cached plan); GET /metrics exposes the obs registry in Prometheus
// text format; SIGTERM drains gracefully — stop admitting, finish
// in-flight requests, flush metrics. See DESIGN.md §5i.
//
// Usage:
//
//	acesod -addr :7433 -concurrency 8 -queue 64 -cache 256
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aceso/internal/obs"
	"aceso/internal/planserver"
)

// A client gets readHeaderTimeout to send its request headers and an
// idle keep-alive connection is closed after idleTimeout. There is no
// write timeout: an SSE stream or a search under the 30 s -max-budget
// must outlive any fixed bound on the response.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr          = flag.String("addr", ":7433", "listen address")
		concurrency   = flag.Int("concurrency", 0, "max concurrent searches (0 = GOMAXPROCS)")
		queue         = flag.Int("queue", 64, "max queued requests before shedding 429s")
		cacheSize     = flag.Int("cache", 256, "plan cache capacity (entries)")
		defaultBudget = flag.Duration("default-budget", 2*time.Second, "search budget when a request omits budget_ms")
		maxBudget     = flag.Duration("max-budget", 30*time.Second, "upper clamp on requested budgets")
		traceCap      = flag.Int("trace-cap", 4096, "rolling iteration-trace window served at /v1/trace")
	)
	flag.Parse()

	srv := planserver.New(planserver.Config{
		Concurrency:   *concurrency,
		Queue:         *queue,
		CacheSize:     *cacheSize,
		DefaultBudget: *defaultBudget,
		MaxBudget:     *maxBudget,
		TraceCap:      *traceCap,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("acesod: listen %s: %v", *addr, err)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()

	// SIGTERM/SIGINT → graceful drain: stop admitting, finish
	// in-flight, then close the listener and flush metrics.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	drained := make(chan struct{})
	go func() {
		sig := <-sigc
		log.Printf("acesod: %v received, draining", sig)
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		close(drained)
	}()

	log.Printf("acesod: serving on %s (concurrency=%d queue=%d cache=%d)", ln.Addr(), *concurrency, *queue, *cacheSize)

	err = <-serveDone
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("acesod: serve: %v", err)
	}
	<-drained
	flushMetrics(srv.Registry())
	log.Printf("acesod: drained, bye")
}

// flushMetrics writes the final Prometheus snapshot to stderr so the
// last scrape interval is never lost on shutdown.
func flushMetrics(reg *obs.Registry) {
	fmt.Fprintln(os.Stderr, "# acesod final metrics snapshot")
	_ = reg.WritePrometheus(os.Stderr)
}

// Command ccrouter fronts a fleet of ccserved replicas with a
// consistent-hash sharding proxy: each request body is canonicalized
// once, hashed to a shard, and forwarded to the replica that owns it, so
// identical specs always hit the same replica's cache. Replica health
// is probed actively and observed passively; assignments rebalance
// automatically when a replica dies and return when it recovers.
//
// The replica set is given as repeated -replica id=url flags:
//
//	ccrouter -addr :9090 \
//	  -replica a=http://127.0.0.1:8081 \
//	  -replica b=http://127.0.0.1:8082 \
//	  -replica c=http://127.0.0.1:8083
//
// Each replica should run with the matching -shard-id. The shard key
// only picks the replica; the replica derives the cache key itself, so
// an answer's key is the same with or without the router.
//
// The router serves the same /v1 surface as ccserved — POST compute
// endpoints are sharded by body key, GET /v1/version and /v1/stats
// round-robin, GET /v1/healthz reports the router's own view of the
// fleet, GET /v1/traces streams the router's recent request traces as
// NDJSON, and GET /metrics exposes ccrouter_* series. Every non-2xx
// body is the same typed APIError envelope the replicas use.
//
// The shared observability flags (-log-level, -trace-*, -pprof-addr)
// control structured JSON logging, end-to-end request tracing — the
// router mints or adopts the W3C traceparent and the replicas join the
// same trace — and the gated profiling listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/ccnet/ccnet/internal/obs"
	"github.com/ccnet/ccnet/internal/router"
	"github.com/ccnet/ccnet/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// replicaFlags collects repeated -replica id=url occurrences.
type replicaFlags []router.Replica

func (f *replicaFlags) String() string {
	parts := make([]string, len(*f))
	for i, r := range *f {
		parts[i] = r.ID + "=" + r.URL
	}
	return strings.Join(parts, ",")
}

func (f *replicaFlags) Set(v string) error {
	id, url, ok := strings.Cut(v, "=")
	if !ok || id == "" || url == "" {
		return fmt.Errorf("want id=url, got %q", v)
	}
	*f = append(*f, router.Replica{ID: id, URL: strings.TrimRight(url, "/")})
	return nil
}

// run parses flags and serves; split from main so the CLI tests can
// exercise flag handling without binding sockets.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var replicas replicaFlags
	fs.Var(&replicas, "replica", "replica as id=url (repeatable, at least one required)")
	var (
		addr          = fs.String("addr", ":9090", "listen address")
		vnodes        = fs.Int("vnodes", 64, "virtual ring points per replica")
		probeInterval = fs.Duration("probe-interval", time.Second, "active health-probe period")
		failAfter     = fs.Int("fail-after", 2, "consecutive failures before a replica is marked down")
		riseAfter     = fs.Int("rise-after", 2, "consecutive successes before a replica is marked up again")
		maxRetries    = fs.Int("max-retries", 2, "additional replicas to try after a transport failure")
		showVersion   = fs.Bool("version", false, "print version and exit")
	)
	obsFlags := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String("ccrouter"))
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ccrouter: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if len(replicas) == 0 {
		fmt.Fprintln(stderr, "ccrouter: at least one -replica id=url is required")
		fs.Usage()
		return 2
	}

	stack, err := obsFlags.Build("router", stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ccrouter:", err)
		return 2
	}
	defer stack.Close()
	if err := stack.ServePprof(*obsFlags.PprofAddr); err != nil {
		fmt.Fprintln(stderr, "ccrouter:", err)
		return 2
	}

	rt, err := router.New(router.Options{
		Replicas:      replicas,
		VNodes:        *vnodes,
		ProbeInterval: *probeInterval,
		FailAfter:     *failAfter,
		RiseAfter:     *riseAfter,
		MaxRetries:    *maxRetries,
		Log:           stack.Log,
		Tracer:        stack.Tracer,
	})
	if err != nil {
		fmt.Fprintln(stderr, "ccrouter:", err)
		return 2
	}
	rt.Start()
	defer rt.Close()
	return serve(*addr, rt.Handler(), len(replicas), stdout, stderr)
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains in-flight
// requests for up to 10 seconds.
func serve(addr string, h http.Handler, nReplicas int, stdout, stderr io.Writer) int {
	hs := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(stdout, "ccrouter %s listening on %s, %d replicas\n", version.Version, addr, nReplicas)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintln(stderr, "ccrouter:", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stdout, "ccrouter: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "ccrouter:", err)
			return 1
		}
	}
	return 0
}

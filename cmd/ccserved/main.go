// Command ccserved serves the analytical model and the scenario engine
// over HTTP, fronted by a canonical-spec result cache: requests are
// canonicalized and hashed, identical in-flight requests compute once,
// and finished results are reused until evicted (LRU over entries and
// bytes) or expired (TTL).
//
// Endpoints:
//
//	POST /v1/evaluate   one analytical evaluation at a single rate
//	POST /v1/sweep      an analytical sweep over a lambda grid
//	POST /v1/campaign   a full scenario spec (same JSON as ccscen files)
//	POST /v1/batch      a batch of evaluate/sweep/campaign items, streamed
//	                    back incrementally as NDJSON (one result line per
//	                    completed item, in item order, plus a summary line);
//	                    a client that disconnects stops the batch — items
//	                    not yet started never run (in-flight items finish)
//	POST /v1/optimize   a design-space search spec, streamed back as NDJSON
//	                    progress lines plus a terminal Pareto-frontier line;
//	                    repeated specs answer from the result cache, and a
//	                    disconnecting client cancels the search
//	GET  /v1/healthz    liveness + version + shard identity
//	GET  /v1/version    build, API and cache-schema versions
//	GET  /v1/stats      request and cache counters
//
// Every non-2xx response body is the typed APIError envelope (code,
// message, requestId, details); streaming endpoints frame every NDJSON
// line with a "kind" of progress, result or error. Behind a ccrouter
// tier, -shard-id names the replica; its cache keys are its own, so an
// answer's key is the same with or without the router. An exact repeat
// of an answered body is served by its body digest before decoding.
//
// Every request's computation (sweep points, campaign jobs, states,
// candidates and batch items) fans out on one process-wide parallel
// loop of GOMAXPROCS goroutines in all; the Go runtime's GOMAXPROCS
// environment variable sizes it, and /v1/stats reports it as workers.
//
// Examples:
//
//	ccserved -addr :8080
//	ccserved -addr :8080 -cache-entries 4096 -cache-bytes 268435456 -ttl 1h
//	curl -s localhost:8080/v1/healthz
//	curl -sN localhost:8080/v1/batch -d @batchfile.json
//	curl -sN localhost:8080/v1/optimize -d @searchspec.json
//
// The request formats are documented in README.md.
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
	"syscall"
	"time"

	"github.com/ccnet/ccnet/internal/obs"
	"github.com/ccnet/ccnet/internal/service"
	"github.com/ccnet/ccnet/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and serves; split from main (and from the listen
// loop) so the table-driven CLI tests can exercise flag handling.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		cacheEntries = fs.Int("cache-entries", 1024, "result cache capacity in entries")
		cacheBytes   = fs.Int64("cache-bytes", 64<<20, "result cache capacity in bytes")
		ttl          = fs.Duration("ttl", 15*time.Minute, "result cache entry lifetime (negative disables expiry)")
		shardID      = fs.String("shard-id", "", "shard identity reported in X-Shard and /v1/version (set when running behind ccrouter)")
		showVersion  = fs.Bool("version", false, "print version and exit")
	)
	obsFlags := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String("ccserved"))
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ccserved: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	stack, err := obsFlags.Build("service", stderr)
	if err != nil {
		fmt.Fprintln(stderr, "ccserved:", err)
		return 2
	}
	defer stack.Close()
	if err := stack.ServePprof(*obsFlags.PprofAddr); err != nil {
		fmt.Fprintln(stderr, "ccserved:", err)
		return 2
	}

	srv := service.New(service.Options{
		CacheEntries: *cacheEntries,
		CacheBytes:   *cacheBytes,
		CacheTTL:     *ttl,
		ShardID:      *shardID,
		Log:          stack.Log,
		Tracer:       stack.Tracer,
	})
	return serve(*addr, srv.Handler(), stdout, stderr)
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains in-flight
// requests for up to 10 seconds.
func serve(addr string, h http.Handler, stdout, stderr io.Writer) int {
	hs := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(stdout, "ccserved %s listening on %s\n", version.Version, addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintln(stderr, "ccserved:", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stdout, "ccserved: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "ccserved:", err)
			return 1
		}
	}
	return 0
}

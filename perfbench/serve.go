package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/routertest"
	"github.com/ccnet/ccnet/internal/service"
)

// tier is a running serving tier on loopback: one replica, or a router
// with replicas.
type tier struct {
	base     string
	replicas []string // replica base URLs, for their /v1/stats
	router   bool
	close    func()
}

// startTier starts the serving tier: replicas == 0 serves one replica
// with no router, replicas > 0 a router over that many replicas. traced
// turns on request tracing, and with it the Server-Timing headers.
func startTier(replicas int, traced bool) (*tier, error) {
	if replicas > 0 {
		c, err := routertest.Start(routertest.Config{Replicas: replicas, Trace: traced})
		if err != nil {
			return nil, err
		}
		t := &tier{base: c.BaseURL(), router: true, close: c.Close}
		for i := 0; i < replicas; i++ {
			t.replicas = append(t.replicas, c.ReplicaURL(i))
		}
		return t, nil
	}
	opt := service.Options{}
	if traced {
		opt.Tracer = reqtrace.New(reqtrace.Options{Component: "ccserved"})
	}
	h := service.New(opt).Handler()
	return serveHandler(h)
}

// serveHandler serves h on a loopback listener.
func serveHandler(h http.Handler) (*tier, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	return &tier{base: base, replicas: []string{base}, close: func() {
		srv.Close()
		<-done
	}}, nil
}

// waitHealthy polls GET /v1/healthz until it answers 200.
func waitHealthy(c *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tier at %s not healthy after 10s (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// setupReps is how many times a run sets its tier up; setup_s is the
// median.
const setupReps = 41

// setUp starts the tier setupReps times, timing each from construction
// to the first 200 from /v1/healthz, and keeps the last one running.
func setUp(replicas int, traced bool) (*tier, []float64, error) {
	var times []float64
	var t *tier
	for i := 0; i < setupReps; i++ {
		if t != nil {
			t.close()
		}
		c := newClient()
		start := time.Now()
		var err error
		if t, err = startTier(replicas, traced); err != nil {
			return nil, nil, err
		}
		if err := waitHealthy(c, t.base); err != nil {
			t.close()
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		c.CloseIdleConnections()
	}
	return t, times, nil
}

// counters are the serving tier's own counts, summed over replicas.
type counters struct {
	hits, misses, evictions, computes, coalesced uint64
	retries, unavailable                         float64
}

// readCounters reads /v1/stats from every replica and, behind a router,
// the router's retry and unavailable counters from its /metrics.
func (t *tier) readCounters(c *http.Client) (counters, error) {
	var out counters
	for _, u := range t.replicas {
		var st service.StatsResult
		if err := getJSON(c, u+"/v1/stats", &st); err != nil {
			return out, err
		}
		out.hits += st.Cache.Hits
		out.misses += st.Cache.Misses
		out.evictions += st.Cache.Evictions
		out.computes += st.Computes
		out.coalesced += st.Coalesced
	}
	if t.router {
		m, err := scrape(c, t.base+"/metrics")
		if err != nil {
			return out, err
		}
		out.retries = m["ccrouter_retries_total"]
		out.unavailable = m["ccrouter_unavailable_total"]
	}
	return out, nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads the unlabeled samples of a Prometheus text exposition.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

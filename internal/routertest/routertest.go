// Package routertest spins up an in-process multi-replica cluster — K
// real ccserved service instances on loopback listeners behind a real
// router — so property tests (and ccload) can exercise the routed path
// end to end: determinism across replica counts, shard stability under
// membership churn, cache-hit locality, and failure modes like killing
// a replica mid-stream. Kill is abrupt (open connections die), and
// Restart re-listens on the replica's original address with a fresh
// service instance, so a restarted replica comes back cold exactly like
// a redeployed process would.
package routertest

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/ccnet/ccnet/internal/reqtrace"
	"github.com/ccnet/ccnet/internal/router"
	"github.com/ccnet/ccnet/internal/service"
)

// Config shapes the cluster. The zero value of every field is usable;
// only Replicas is required.
type Config struct {
	// Replicas is the fleet size K.
	Replicas int
	// ProbeInterval enables active probing when positive; zero leaves
	// the router passive-only (it still learns from forwarding
	// outcomes), which keeps tests deterministic.
	ProbeInterval time.Duration
	// FailAfter, RiseAfter and MaxRetries pass through to the router
	// (zero means the router defaults).
	FailAfter  int
	RiseAfter  int
	MaxRetries int
	// RetryBackoff passes through to the router (zero means default).
	RetryBackoff time.Duration
	// NewHandler, when set, replaces the real service handler for every
	// replica — failure-mode tests use it to build replicas with
	// scripted behavior. The function is called again on Restart.
	NewHandler func(id string) http.Handler
	// Trace wires one end-to-end reqtrace stack through the tier: the
	// router mints (or adopts) the traceparent and every replica joins
	// the trace it forwards, exactly like production ccrouter+ccserved
	// with the -trace-* flags. Each tier serves its own GET /v1/traces.
	Trace bool
	// TraceRate is the sampling rate when Trace is set (0 means sample
	// everything); TraceSeed makes trace ids and sampling decisions
	// deterministic (0 = random ids).
	TraceRate float64
	TraceSeed uint64
}

// tracerFor builds one tier's tracer from the cluster trace config.
func (cfg Config) tracerFor(component string) *reqtrace.Tracer {
	if !cfg.Trace {
		return nil
	}
	return reqtrace.New(reqtrace.Options{
		Component: component,
		Rate:      cfg.TraceRate,
		Seed:      cfg.TraceSeed,
	})
}

// Cluster is a running router plus K replica servers on loopback.
type Cluster struct {
	cfg     Config
	members []*member
	rt      *router.Router
	rsrv    *http.Server
	baseURL string
}

// member is one replica slot. Its address is allocated once and reused
// across Kill/Restart cycles so the router's configuration stays fixed.
type member struct {
	id   string
	addr string

	mu      sync.Mutex
	srv     *http.Server
	svc     *service.Server
	running bool
}

// Start launches the cluster: K replicas, then the router in front.
// Callers must Close it.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Replicas <= 0 {
		return nil, fmt.Errorf("routertest: Replicas must be positive, got %d", cfg.Replicas)
	}
	c := &Cluster{cfg: cfg}
	reps := make([]router.Replica, cfg.Replicas)
	for i := 0; i < cfg.Replicas; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("routertest: replica %d listen: %w", i, err)
		}
		m := &member{id: fmt.Sprintf("r%d", i), addr: ln.Addr().String()}
		c.members = append(c.members, m)
		c.startMember(m, ln)
		reps[i] = router.Replica{ID: m.id, URL: "http://" + m.addr}
	}

	rt, err := router.New(router.Options{
		Replicas:      reps,
		ProbeInterval: cfg.ProbeInterval,
		FailAfter:     cfg.FailAfter,
		RiseAfter:     cfg.RiseAfter,
		MaxRetries:    cfg.MaxRetries,
		RetryBackoff:  cfg.RetryBackoff,
		Tracer:        cfg.tracerFor("router"),
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.rt = rt
	if cfg.ProbeInterval > 0 {
		rt.Start()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("routertest: router listen: %w", err)
	}
	c.rsrv = &http.Server{Handler: rt.Handler()}
	go c.rsrv.Serve(ln)
	c.baseURL = "http://" + ln.Addr().String()
	return c, nil
}

// startMember builds a fresh handler (and service, unless overridden)
// and serves it on ln.
func (c *Cluster) startMember(m *member, ln net.Listener) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c.cfg.NewHandler != nil {
		m.svc = nil
		m.srv = &http.Server{Handler: c.cfg.NewHandler(m.id)}
	} else {
		m.svc = service.New(service.Options{
			ShardID: m.id,
			Tracer:  c.cfg.tracerFor(m.id),
		})
		m.srv = &http.Server{Handler: m.svc.Handler()}
	}
	m.running = true
	go m.srv.Serve(ln)
}

// BaseURL is the router's address; point clients here.
func (c *Cluster) BaseURL() string { return c.baseURL }

// Router exposes the router (for Pick-based assertions and metrics).
func (c *Cluster) Router() *router.Router { return c.rt }

// ReplicaURL returns replica i's base URL (for probing it directly).
func (c *Cluster) ReplicaURL(i int) string { return "http://" + c.members[i].addr }

// Service returns replica i's current service instance, or nil when the
// replica is down or the cluster uses a NewHandler override. A Restart
// swaps in a new instance, so callers must re-fetch after one.
func (c *Cluster) Service(i int) *service.Server {
	m := c.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.svc
}

// Kill abruptly stops replica i: the listener closes and every open
// connection — including mid-stream responses — is severed.
func (c *Cluster) Kill(i int) {
	m := c.members[i]
	m.mu.Lock()
	srv, running := m.srv, m.running
	m.running = false
	m.svc = nil
	m.mu.Unlock()
	if running {
		srv.Close()
	}
}

// Restart brings replica i back on its original address with a fresh
// handler (cold cache). The address was just released by Kill, so the
// bind is retried briefly.
func (c *Cluster) Restart(i int) error {
	m := c.members[i]
	m.mu.Lock()
	running := m.running
	m.mu.Unlock()
	if running {
		return fmt.Errorf("routertest: replica %d is already running", i)
	}
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", m.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("routertest: rebind %s: %w", m.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.startMember(m, ln)
	return nil
}

// Close tears the whole cluster down: router first (so nothing keeps
// forwarding), then every replica.
func (c *Cluster) Close() {
	if c.rsrv != nil {
		c.rsrv.Close()
	}
	if c.rt != nil {
		c.rt.Close()
	}
	for i := range c.members {
		c.Kill(i)
	}
}

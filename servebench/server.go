package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/httpd"
	"repro/internal/snapshot"
)

// stack is one booted server: the registry, its per-scheme Services (in
// workload scheme order) and the handler over them.
type stack struct {
	reg  *core.Registry
	svcs []*core.Service
	h    *httpd.Handler
}

// setupTimes are the layer costs inside one set-up.
type setupTimes struct {
	total, decode, restore time.Duration
}

// schemeOptions is the only per-workload server setting: the cache size.
func (w *workload) schemeOptions() []core.Option {
	if w.cacheSize <= 0 {
		return nil
	}
	return []core.Option{core.WithCacheSize(w.cacheSize)}
}

// queryOptions mirrors what the handler derives from a request's wire
// fields, for the in-process replays.
func (w *workload) queryOptions(si int) []core.QueryOption {
	var opts []core.QueryOption
	if l := w.schemes[si].exactLimit; l > 0 {
		opts = append(opts, core.WithQueryExactLimit(l))
	}
	if w.bypass {
		opts = append(opts, core.WithCacheBypass())
	}
	return opts
}

// prepare is the benchmark's own input preparation, done once before any
// timing: for miss-churn, the warm snapshot its set-up boots from; nil
// for workloads that compile their schemes.
func prepare(ctx context.Context, w *workload) ([]byte, error) {
	if w.name != "miss-churn" {
		return nil, nil
	}
	// Room for every warm entry, so the snapshot carries all of them;
	// the restore then overfills the served cache.
	svc := core.Open(w.schemes[0].b, core.WithCacheSize(2*len(w.warm)))
	for _, q := range w.warm {
		if _, err := svc.Connect(ctx, q.terminals); err != nil {
			return nil, fmt.Errorf("preparing warmup entry %v: %w", q.terminals, err)
		}
	}
	var buf bytes.Buffer
	if err := svc.SaveWarmSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// build compiles (or boots from snapshot) every scheme of w and warms the
// caches, exactly as a server would before taking traffic. It does not
// listen; serve does.
func build(ctx context.Context, w *workload, snap []byte) (*stack, setupTimes, error) {
	var st setupTimes
	reg := core.NewRegistry()
	opts := w.schemeOptions()
	s := &stack{reg: reg}
	if snap != nil {
		t0 := time.Now()
		decoded, err := snapshot.Decode(snap)
		if err != nil {
			return nil, st, err
		}
		t1 := time.Now()
		// core.OpenSnapshot split in two so the restore is timed alone.
		svc := core.NewService(core.NewFromSnapshot(decoded, opts...), opts...)
		t2 := time.Now()
		if n := svc.RestoreWarmup(decoded.Warmup); n != len(w.warm) {
			return nil, st, fmt.Errorf("warm restore installed %d of %d entries", n, len(w.warm))
		}
		st.decode, st.restore = t1.Sub(t0), time.Since(t2)
		reg.Swap(w.schemes[0].name, svc, core.SourceSnapshot(decoded.Version))
		s.svcs = []*core.Service{svc}
	} else {
		for _, sc := range w.schemes {
			s.svcs = append(s.svcs, reg.Set(sc.name, sc.b, opts...))
		}
		for _, q := range w.warm {
			if _, err := s.svcs[q.scheme].Connect(ctx, q.terminals, w.queryOptions(q.scheme)...); err != nil {
				return nil, st, fmt.Errorf("warming %s %v: %w", w.schemes[q.scheme].name, q.terminals, err)
			}
		}
	}
	// As `chordalctl -serve` builds it by default, minus the tracer and
	// access log it adds.
	s.h = httpd.New(reg, httpd.WithMaxInFlight(httpd.DefaultMaxInFlight), httpd.WithSchemeOptions(opts...))
	return s, st, nil
}

// listener is a running loopback server.
type listener struct {
	base   string
	cancel context.CancelFunc
	done   chan error
}

func serve(h http.Handler) (*listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ln := &listener{base: "http://" + l.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { ln.done <- httpd.Serve(ctx, l, h, 0) }()
	return ln, nil
}

// stop shuts the server down and waits until it has.
func (l *listener) stop() error {
	l.cancel()
	return <-l.done
}

// ready serves one request end to end: set-up ends when a request can be
// answered, not merely when the socket is open.
func (l *listener) ready() error {
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get(l.base + "/v1/schemes")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readiness probe: status %d", resp.StatusCode)
	}
	return nil
}

// spanHandler wraps the handler for traced runs: while on, it records
// each request's ServeHTTP interval under the id the client set.
type spanHandler struct {
	next http.Handler
	on   atomic.Bool
	mu   sync.Mutex
	log  []span
}

const reqHeader = "X-Bench-Req"

type span struct {
	id         int
	start, end int64 // ns since origin
}

var origin = time.Now()

func since() int64 { return int64(time.Since(origin)) }

func (s *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.on.Load() {
		s.next.ServeHTTP(w, r)
		return
	}
	t0 := since()
	s.next.ServeHTTP(w, r)
	t1 := since()
	var id int
	if _, err := fmt.Sscan(r.Header.Get(reqHeader), &id); err != nil {
		return
	}
	s.mu.Lock()
	s.log = append(s.log, span{id, t0, t1})
	s.mu.Unlock()
}

// setup builds and serves the workload repeatedly (see setupReps), the
// way a restarted server would, and reports every set-up's times. The
// last stack stays up.
func setup(ctx context.Context, w *workload, snap []byte, wrap func(http.Handler) http.Handler) (*stack, *listener, []setupTimes, error) {
	var all []setupTimes
	start := time.Now()
	for rep := 0; ; rep++ {
		t0 := time.Now()
		s, st, err := build(ctx, w, snap)
		if err != nil {
			return nil, nil, nil, err
		}
		var h http.Handler = s.h
		if wrap != nil {
			h = wrap(h)
		}
		ln, err := serve(h)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := ln.ready(); err != nil {
			return nil, nil, nil, errors.Join(err, ln.stop())
		}
		st.total = time.Since(t0)
		all = append(all, st)
		if n := rep + 1; n >= setupReps && (n >= maxSetupReps || time.Since(start) >= setupBudget) {
			return s, ln, all, nil
		}
		if err := ln.stop(); err != nil {
			return nil, nil, nil, err
		}
	}
}

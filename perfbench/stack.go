package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync/atomic"
	"time"

	"hesgx/internal/attest"
	"hesgx/internal/core"
	"hesgx/internal/serve"
	"hesgx/internal/sgx"
	"hesgx/internal/trace"
	"hesgx/internal/wire"
)

// serverTraceRing is how many finished server-side request traces the
// stack retains. The traced phase looks its requests' wire.encode spans up
// there by trace ID, so the ring must outlast a whole phase.
const serverTraceRing = 4096

// countingListener wraps the listener handed to wire.Server.Serve and
// counts every byte the server reads (client upload) and writes (reply) at
// the socket, frame headers and envelopes included.
type countingListener struct {
	net.Listener
	up, down atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.up.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.down.Add(int64(n))
	return n, err
}

// setupTimes splits one stack construction into its stages, in seconds.
type setupTimes struct {
	enclave, weights, attest, galois, warmup float64
}

func (s setupTimes) total() float64 {
	return s.enclave + s.weights + s.attest + s.galois + s.warmup
}

// stack is one in-process edge server (ZeroCost SGX platform, enclave
// service, hybrid engine, serving pipeline, wire server on loopback TCP)
// plus the wire clients that drive it.
type stack struct {
	platform *sgx.Platform
	svc      *core.EnclaveService
	engine   *core.HybridEngine
	service  *serve.Service
	ln       *countingListener
	addr     string
	cancel   context.CancelFunc
	served   chan error
	clients  []*wire.Client
	setup    setupTimes
}

// newStack builds the server stack for wl, dials wl.conns untraced
// clients, uploads Galois keys when the workload needs them and sends one
// discarded warm-up request per connection. The stage times land in
// st.setup.
func newStack(wl *workload) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	t0 := time.Now()
	if st.platform, err = sgx.NewPlatform(sgx.ZeroCost()); err != nil {
		return st, fmt.Errorf("platform: %w", err)
	}
	params, err := core.DefaultSIMDParameters()
	if err != nil {
		return st, err
	}
	if st.svc, err = core.NewEnclaveService(st.platform, params); err != nil {
		return st, fmt.Errorf("enclave: %w", err)
	}
	t1 := time.Now()
	if st.engine, err = core.NewEngine(st.svc, wl.model(), wl.engineOpts...); err != nil {
		return st, fmt.Errorf("engine: %w", err)
	}
	if wl.packed {
		// A packed workload that silently ran the scalar layout would
		// measure the wrong program.
		if info := st.engine.PackedInfo(); !info.Active {
			return st, fmt.Errorf("packed plan inactive: %s", info.Reason)
		}
	}
	if err = st.engine.EncodeWeights(); err != nil {
		return st, fmt.Errorf("weights: %w", err)
	}
	t2 := time.Now()
	st.service = serve.NewService(st.engine, st.svc, serve.WithTracer(trace.NewTracer(serverTraceRing)))
	srv, err := wire.NewServer(st.svc, st.engine, slog.New(slog.NewTextHandler(io.Discard, nil)),
		wire.WithService(st.service), wire.WithTracer(st.service.Tracer),
		wire.WithMetrics(st.service.Metrics))
	if err != nil {
		return st, fmt.Errorf("wire server: %w", err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, fmt.Errorf("listen: %w", err)
	}
	st.ln = &countingListener{Listener: inner}
	st.addr = inner.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	st.cancel = cancel
	st.served = make(chan error, 1)
	go func() { st.served <- srv.Serve(ctx, st.ln) }()
	clients, err := st.dial(wl.conns, false)
	if err != nil {
		return st, err
	}
	t3 := time.Now()
	if wl.galoisSteps != nil {
		if err = clients[0].UploadGaloisKeys(wl.galoisSteps, 0); err != nil {
			return st, fmt.Errorf("galois keys: %w", err)
		}
	}
	t4 := time.Now()
	if err = st.warmUp(wl, clients); err != nil {
		return st, err
	}
	t5 := time.Now()
	st.setup = setupTimes{
		enclave: t1.Sub(t0).Seconds(),
		weights: t2.Sub(t1).Seconds(),
		attest:  t3.Sub(t2).Seconds(),
		galois:  t4.Sub(t3).Seconds(),
		warmup:  t5.Sub(t4).Seconds(),
	}
	return st, nil
}

// dial opens n attested wire clients, traced or not. The stack owns them
// and closes them in close.
func (st *stack) dial(n int, traced bool) ([]*wire.Client, error) {
	out := make([]*wire.Client, 0, n)
	for i := 0; i < n; i++ {
		var opts []wire.ClientOption
		if traced {
			opts = append(opts, wire.WithClientTracer(nil))
		}
		c, err := wire.Dial(st.addr, attest.NewService(), opts...)
		if err != nil {
			return nil, err
		}
		st.clients = append(st.clients, c)
		if err := c.FetchTrustBundle(); err != nil {
			return nil, fmt.Errorf("trust bundle: %w", err)
		}
		if err := c.Attest(); err != nil {
			return nil, fmt.Errorf("attest: %w", err)
		}
		out = append(out, c)
	}
	return out, nil
}

// warmUp sends one request per client concurrently and discards the
// replies (an error still fails set-up).
func (st *stack) warmUp(wl *workload, clients []*wire.Client) error {
	errs := make(chan error, len(clients))
	for i, c := range clients {
		imgs := wl.images(newRand(0, uint64(i)))
		go func(c *wire.Client) {
			_, err := wl.send(c, imgs)
			errs <- err
		}(c)
	}
	var first error
	for range clients {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("warm-up request: %w", err)
		}
	}
	return first
}

// close disconnects every client, stops the wire server, waits for its
// connection handlers and drains the serving pipeline.
func (st *stack) close() {
	for _, c := range st.clients {
		_ = c.Close()
	}
	st.clients = nil
	if st.cancel != nil {
		st.cancel()
		<-st.served
		st.cancel = nil
	}
	if st.service != nil {
		st.service.Close()
		st.service = nil
	}
}

package serve

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/stats"
	"hesgx/internal/trace"
)

// Batcher is a batching proxy in front of an enclave service: it coalesces
// element-wise non-linear calls (Activation / PoolDivide / Refresh) from
// different in-flight inferences into shared enclave
// transitions. The paper's Fig. 8 shows batching ciphertexts per ECALL
// amortizes the dominant boundary-crossing cost *within* one inference;
// the Batcher extends the same amortization *across* concurrent requests:
// N clients at the same layer pay one transition instead of N.
//
// Calls whose NonlinearOp values compare equal compute the same function,
// so their batches concatenate safely; the results demultiplex back to the
// waiting requests by offset. A pending batch flushes when it reaches
// MaxBatch ciphertexts or when the oldest call has waited Window — so a
// lone request never stalls longer than the flush window.
//
// Whole-map pooling ops (OpPoolFull/OpPoolMax) pass through unbatched:
// their output depends on element positions within the batch.
type Batcher struct {
	svc      core.NonlinearCaller
	maxBatch int
	window   time.Duration
	metrics  *stats.Registry
	logger   *slog.Logger

	mu      sync.Mutex
	pending map[core.NonlinearOp]*bucket
	closed  bool
}

// BatcherConfig tunes the batching proxy.
type BatcherConfig struct {
	// MaxBatch flushes a pending batch once it holds this many ciphertexts
	// (default 256). Larger batches amortize the transition further but
	// grow the enclave working set.
	MaxBatch int
	// Window bounds how long the first call in a batch waits for company
	// (default 2ms). This is the latency the slowest path trades for
	// throughput; it should stay within an order of magnitude of the
	// modelled transition cost.
	Window time.Duration
	// Metrics receives batching counters and occupancy samples (nil: none).
	Metrics *stats.Registry
	// Logger receives structured records for failed flushes (nil: silent).
	Logger *slog.Logger
}

// DefaultBatcherConfig returns the serving defaults.
func DefaultBatcherConfig() BatcherConfig {
	return BatcherConfig{MaxBatch: 256, Window: 2 * time.Millisecond}
}

// flushResult carries one waiter's demultiplexed share of a flushed batch.
type flushResult struct {
	outs []*he.Ciphertext
	// requests is the batch occupancy: how many callers shared the flush.
	requests int
	err      error
}

// waiter is one caller blocked on a pending batch.
type waiter struct {
	cts  []*he.Ciphertext
	done chan flushResult // buffered; flush never blocks on delivery
	// ctx carries the waiter's trace attachment; the flush joins every
	// waiter's context so the shared ECALL span lands in each trace.
	ctx context.Context
}

// bucket accumulates waiters for one op value.
type bucket struct {
	op      core.NonlinearOp
	waiters []*waiter
	count   int // total ciphertexts across waiters
	timer   *time.Timer
}

// NewBatcher wraps svc (normally the *core.EnclaveService) in a batching
// proxy. Zero config fields fall back to DefaultBatcherConfig.
func NewBatcher(svc core.NonlinearCaller, cfg BatcherConfig) *Batcher {
	def := DefaultBatcherConfig()
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = def.MaxBatch
	}
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	return &Batcher{
		svc:      svc,
		maxBatch: cfg.MaxBatch,
		window:   cfg.Window,
		metrics:  cfg.Metrics,
		logger:   cfg.Logger,
		pending:  make(map[core.NonlinearOp]*bucket),
	}
}

// Nonlinear implements core.NonlinearCaller. Batchable ops join (or open)
// the pending batch for their op value and block until it flushes;
// non-batchable ops call straight through.
func (b *Batcher) Nonlinear(ctx context.Context, op core.NonlinearOp, cts []*he.Ciphertext) ([]*he.Ciphertext, error) {
	if !op.Batchable() || len(cts) == 0 || len(cts) >= b.maxBatch {
		b.metrics.Counter("serve.ecalls.direct").Inc()
		return b.svc.Nonlinear(ctx, op, cts)
	}
	wctx, wspan := trace.StartSpan(ctx, "batch.wait", "serve")
	w := &waiter{cts: cts, done: make(chan flushResult, 1), ctx: wctx}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		wspan.End()
		b.metrics.Counter("serve.ecalls.direct").Inc()
		return b.svc.Nonlinear(ctx, op, cts)
	}
	bkt, ok := b.pending[op]
	if !ok {
		bkt = &bucket{op: op}
		b.pending[op] = bkt
		// The first waiter arms the flush window for this bucket.
		bkt.timer = time.AfterFunc(b.window, func() { b.flushOp(op, bkt) })
	}
	bkt.waiters = append(bkt.waiters, w)
	bkt.count += len(cts)
	if bkt.count >= b.maxBatch {
		// The call that tips the batch over carries the flush.
		delete(b.pending, op)
		bkt.timer.Stop()
		b.mu.Unlock()
		b.flush(bkt)
	} else {
		b.mu.Unlock()
	}

	select {
	case r := <-w.done:
		wspan.Arg("shared_requests", float64(r.requests)).End()
		return r.outs, r.err
	case <-ctx.Done():
		// The batch still executes (other waiters need it); this caller
		// just stops waiting for its share.
		wspan.Arg("abandoned", 1).End()
		return nil, ctx.Err()
	}
}

// flushOp flushes bkt if it is still the pending bucket for op (the timer
// path; a size-triggered flush may already have detached it).
func (b *Batcher) flushOp(op core.NonlinearOp, bkt *bucket) {
	b.mu.Lock()
	cur, ok := b.pending[op]
	if !ok || cur != bkt {
		b.mu.Unlock()
		return
	}
	delete(b.pending, op)
	b.mu.Unlock()
	b.flush(bkt)
}

// flush executes one coalesced ECALL and demultiplexes the results.
func (b *Batcher) flush(bkt *bucket) {
	all := make([]*he.Ciphertext, 0, bkt.count)
	wctxs := make([]context.Context, 0, len(bkt.waiters))
	for _, w := range bkt.waiters {
		all = append(all, w.cts...)
		wctxs = append(wctxs, w.ctx)
	}
	b.metrics.Counter("serve.ecalls.batched").Inc()
	b.metrics.Counter("serve.ecalls.saved").Add(int64(len(bkt.waiters) - 1))
	b.metrics.ObserveHistogram("serve.batch.occupancy_requests", float64(len(bkt.waiters)))
	b.metrics.ObserveHistogram("serve.batch.occupancy_cts", float64(len(all)))

	// The flush runs under its own context: individual callers may have
	// been cancelled, but the remaining waiters still need the result.
	// Joining the waiters' contexts attributes the shared ECALL span (and
	// its transition cost) to every request's trace without inheriting
	// any caller's cancellation.
	fctx, fspan := trace.StartSpan(trace.Join(context.Background(), wctxs...), "batch.flush", "serve")
	fspan.Arg("requests", float64(len(bkt.waiters))).Arg("cts", float64(len(all)))
	outs, err := b.svc.Nonlinear(fctx, bkt.op, all)
	fspan.End()
	if err == nil && len(outs) != len(all) {
		err = fmt.Errorf("serve: batched %s returned %d ciphertexts for %d inputs", bkt.op.Kind, len(outs), len(all))
	}
	if err != nil {
		// One failed flush fails every sharing request; log once with the
		// batch shape rather than once per waiter.
		b.logger.Warn("batched enclave call failed",
			"op", bkt.op.Kind.String(),
			"requests", len(bkt.waiters),
			"cts", len(all),
			"err", err)
	}
	off := 0
	for _, w := range bkt.waiters {
		if err != nil {
			w.done <- flushResult{requests: len(bkt.waiters), err: err}
			continue
		}
		w.done <- flushResult{outs: outs[off : off+len(w.cts)], requests: len(bkt.waiters)}
		off += len(w.cts)
	}
}

// Close flushes every pending batch and routes subsequent calls straight
// through to the underlying service.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	buckets := make([]*bucket, 0, len(b.pending))
	for op, bkt := range b.pending {
		bkt.timer.Stop()
		buckets = append(buckets, bkt)
		delete(b.pending, op)
	}
	b.mu.Unlock()
	for _, bkt := range buckets {
		b.flush(bkt)
	}
}

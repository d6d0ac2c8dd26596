package serve

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hesgx/internal/attest"
	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
	"hesgx/internal/stats"
)

// --- Batcher unit tests over a fake caller ---

// fakeCaller records underlying Nonlinear invocations and echoes inputs.
type fakeCaller struct {
	mu    sync.Mutex
	calls []int // batch sizes, in call order
	err   error
	delay time.Duration
}

func (f *fakeCaller) Nonlinear(ctx context.Context, op core.NonlinearOp, cts []*he.Ciphertext) ([]*he.Ciphertext, error) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	f.calls = append(f.calls, len(cts))
	f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	out := make([]*he.Ciphertext, len(cts))
	copy(out, cts)
	return out, nil
}

func (f *fakeCaller) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func dummyCTs(n int) []*he.Ciphertext {
	out := make([]*he.Ciphertext, n)
	for i := range out {
		out[i] = &he.Ciphertext{}
	}
	return out
}

func TestBatcherCoalescesConcurrentCalls(t *testing.T) {
	fake := &fakeCaller{}
	reg := stats.NewRegistry()
	// 4 callers × 2 cts fill MaxBatch exactly; the last arrival flushes.
	b := NewBatcher(fake, BatcherConfig{MaxBatch: 8, Window: time.Minute, Metrics: reg})
	defer b.Close()
	op := core.NonlinearOp{Kind: core.OpActivation, Act: int(nn.Sigmoid), InScale: 2, OutScale: 2}

	var wg sync.WaitGroup
	results := make([][]*he.Ciphertext, 4)
	inputs := make([][]*he.Ciphertext, 4)
	for i := 0; i < 4; i++ {
		inputs[i] = dummyCTs(2)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := b.Nonlinear(context.Background(), op, inputs[i])
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = out
		}(i)
	}
	wg.Wait()

	if got := fake.callCount(); got != 1 {
		t.Fatalf("underlying called %d times, want 1", got)
	}
	if fake.calls[0] != 8 {
		t.Fatalf("coalesced batch size %d, want 8", fake.calls[0])
	}
	// Each caller must get exactly its own ciphertexts back, in order.
	for i := range results {
		if len(results[i]) != 2 {
			t.Fatalf("caller %d got %d cts", i, len(results[i]))
		}
		for j := range results[i] {
			if results[i][j] != inputs[i][j] {
				t.Fatalf("caller %d result %d demultiplexed wrong ciphertext", i, j)
			}
		}
	}
	if saved := reg.Counter("serve.ecalls.saved").Value(); saved != 3 {
		t.Fatalf("ecalls.saved = %d, want 3", saved)
	}
}

func TestBatcherWindowFlushesLoneCall(t *testing.T) {
	fake := &fakeCaller{}
	b := NewBatcher(fake, BatcherConfig{MaxBatch: 1 << 20, Window: 5 * time.Millisecond})
	defer b.Close()
	op := core.NonlinearOp{Kind: core.OpRefresh}
	start := time.Now()
	out, err := b.Nonlinear(context.Background(), op, dummyCTs(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d cts", len(out))
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("lone call waited %v for a window of 5ms", waited)
	}
	if fake.callCount() != 1 {
		t.Fatalf("underlying called %d times", fake.callCount())
	}
}

func TestBatcherKeepsDistinctOpsApart(t *testing.T) {
	fake := &fakeCaller{}
	b := NewBatcher(fake, BatcherConfig{MaxBatch: 4, Window: 5 * time.Millisecond})
	defer b.Close()
	var wg sync.WaitGroup
	for _, divisor := range []uint64{4, 9} {
		wg.Add(1)
		go func(d uint64) {
			defer wg.Done()
			op := core.NonlinearOp{Kind: core.OpPoolDivide, Divisor: d}
			if _, err := b.Nonlinear(context.Background(), op, dummyCTs(2)); err != nil {
				t.Error(err)
			}
		}(divisor)
	}
	wg.Wait()
	// Different divisors compute different functions: two flushes.
	if got := fake.callCount(); got != 2 {
		t.Fatalf("underlying called %d times, want 2", got)
	}
}

func TestBatcherPassesThroughNonBatchableOps(t *testing.T) {
	fake := &fakeCaller{}
	b := NewBatcher(fake, BatcherConfig{MaxBatch: 1 << 20, Window: time.Minute})
	defer b.Close()
	op := core.NonlinearOp{Kind: core.OpPoolMax, Geometry: core.Geometry{Channels: 1, Height: 2, Width: 2, Window: 2}}
	if _, err := b.Nonlinear(context.Background(), op, dummyCTs(4)); err != nil {
		t.Fatal(err)
	}
	// A minute-long window would have hung a batched call; pass-through
	// returns immediately.
	if fake.callCount() != 1 {
		t.Fatalf("underlying called %d times", fake.callCount())
	}
}

func TestBatcherPropagatesErrorsToAllWaiters(t *testing.T) {
	boom := errors.New("enclave on fire")
	fake := &fakeCaller{err: boom}
	b := NewBatcher(fake, BatcherConfig{MaxBatch: 4, Window: time.Minute})
	defer b.Close()
	op := core.NonlinearOp{Kind: core.OpActivation, Act: int(nn.Sigmoid), InScale: 1, OutScale: 1}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Nonlinear(context.Background(), op, dummyCTs(2)); !errors.Is(err, boom) {
				t.Errorf("got %v, want underlying error", err)
			}
		}()
	}
	wg.Wait()
}

func TestBatcherHonoursCallerCancellation(t *testing.T) {
	fake := &fakeCaller{}
	b := NewBatcher(fake, BatcherConfig{MaxBatch: 1 << 20, Window: time.Minute})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Nonlinear(ctx, core.NonlinearOp{Kind: core.OpRefresh}, dummyCTs(1))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller still blocked")
	}
}

// --- Scheduler unit tests over a fake backend ---

// fakeBackend blocks every inference until released.
type fakeBackend struct {
	release chan struct{}
	runs    atomic.Int64
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{release: make(chan struct{})}
}

func (f *fakeBackend) InferContext(ctx context.Context, img *core.CipherImage) (*core.InferenceResult, error) {
	f.runs.Add(1)
	select {
	case <-f.release:
		return &core.InferenceResult{OutScale: 1}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func waitForCounter(t *testing.T, reg *stats.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter(name).Value() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter %s never reached %d (at %d)", name, want, reg.Counter(name).Value())
}

func TestSchedulerRejectsWhenQueueFull(t *testing.T) {
	backend := newFakeBackend()
	reg := stats.NewRegistry()
	s := NewScheduler(backend, SchedulerConfig{Workers: 1, QueueDepth: 1, Metrics: reg})
	defer func() { close(backend.release); s.Close() }()

	img := &core.CipherImage{}
	errs := make(chan error, 2)
	// First job occupies the lone worker...
	go func() { _, err := s.Infer(context.Background(), img); errs <- err }()
	deadline := time.Now().Add(5 * time.Second)
	for backend.runs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// ...second fills the queue...
	go func() { _, err := s.Infer(context.Background(), img); errs <- err }()
	waitForCounter(t, reg, "serve.jobs.submitted", 2)
	// ...third must be shed immediately.
	if _, err := s.Infer(context.Background(), img); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	if reg.Counter("serve.jobs.rejected").Value() != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestSchedulerExpiresQueuedJobDeadline(t *testing.T) {
	backend := newFakeBackend()
	reg := stats.NewRegistry()
	s := NewScheduler(backend, SchedulerConfig{Workers: 1, QueueDepth: 4, Metrics: reg})

	img := &core.CipherImage{}
	first := make(chan error, 1)
	go func() { _, err := s.Infer(context.Background(), img); first <- err }()
	deadline := time.Now().Add(5 * time.Second)
	for backend.runs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// The second job's deadline expires while it waits behind the first.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Infer(ctx, img); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}

	close(backend.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The expired job must never have entered the backend.
	if got := backend.runs.Load(); got != 1 {
		t.Fatalf("backend ran %d jobs, want 1", got)
	}
	if reg.Counter("serve.jobs.expired").Value() != 1 {
		t.Fatal("expiry not counted")
	}
}

func TestSchedulerAppliesDefaultDeadline(t *testing.T) {
	backend := newFakeBackend()
	defer close(backend.release)
	s := NewScheduler(backend, SchedulerConfig{Workers: 1, QueueDepth: 4, Deadline: 30 * time.Millisecond})
	defer s.Close()
	// The lone worker blocks on this job until its default deadline fires.
	if _, err := s.Infer(context.Background(), &core.CipherImage{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded from default deadline", err)
	}
}

func TestSchedulerClosedRejects(t *testing.T) {
	backend := newFakeBackend()
	close(backend.release)
	s := NewScheduler(backend, SchedulerConfig{Workers: 1, QueueDepth: 1})
	s.Close()
	if _, err := s.Infer(context.Background(), &core.CipherImage{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// --- End-to-end: the pipeline over a real enclave service ---

// stack is a full engine + service + client over a zero-cost platform.
type stack struct {
	platform *sgx.Platform
	svc      *core.EnclaveService
	engine   *core.HybridEngine
	client   *core.Client
	model    *nn.Network
}

func serveConfig() core.Config {
	// SGXDiv pooling keeps every enclave call on a batchable op, the
	// configuration the cross-request amortization targets.
	return core.Config{PixelScale: 63, WeightScale: 16, ActScale: 256, Pool: core.PoolSGXDiv}
}

func newStack(t testing.TB, seed uint64) *stack {
	t.Helper()
	q, err := ring.GenerateNTTPrime(46, 1024)
	if err != nil {
		t.Fatal(err)
	}
	params, err := he.NewParameters(1024, q, 1<<20, he.DefaultDecompositionBase)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewEnclaveService(platform, params, core.WithKeySource(ring.NewSeededSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	r := mrand.New(mrand.NewPCG(seed, seed^1))
	model := nn.NewNetwork(
		nn.NewConv2D(1, 2, 3, 1, r),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(2*3*3, 4, r),
	)
	engine, err := core.NewEngine(svc, model,
		core.WithScales(63, 16, 256), core.WithPoolStrategy(core.PoolSGXDiv))
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	verifier := attest.NewService()
	verifier.RegisterPlatform(platform.AttestationPublicKey())
	verifier.TrustMeasurement(svc.Enclave().Measurement())
	if _, err := client.RunKeyExchange(svc, verifier); err != nil {
		t.Fatal(err)
	}
	return &stack{platform: platform, svc: svc, engine: engine, client: client, model: model}
}

func testImage(seed uint64) *nn.Tensor {
	r := mrand.New(mrand.NewPCG(seed, seed^2))
	img := nn.NewTensor(1, 8, 8)
	for i := range img.Data {
		img.Data[i] = r.Float64()
	}
	return img
}

// runConcurrent pushes n distinct images through the serving stack at once
// and verifies every decrypted result against the plaintext reference. It
// returns the enclave transition count consumed by the inferences.
func runConcurrent(t *testing.T, st *stack, s *Service, n int) uint64 {
	t.Helper()
	imgs := make([]*nn.Tensor, n)
	cis := make([]*core.CipherImage, n)
	for i := range imgs {
		imgs[i] = testImage(uint64(100 + i))
		ci, err := st.client.EncryptImages([]*nn.Tensor{imgs[i]}, serveConfig().PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		cis[i] = ci
	}
	if err := st.engine.EncodeWeights(); err != nil {
		t.Fatal(err)
	}
	before := st.platform.Snapshot()

	var wg sync.WaitGroup
	results := make([]*Result, n)
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = s.Infer(context.Background(), Request{Image: cis[i]})
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("inference %d: %v", i, errs[i])
		}
		got, err := st.client.DecryptValues(results[i].Logits)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.engine.ReferenceForward(imgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("inference %d: %d logits, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("inference %d logit %d: encrypted %d != reference %d", i, j, got[j], want[j])
			}
		}
	}
	return st.platform.Snapshot().Sub(before).Transitions()
}

func TestPipelineBatchingReducesTransitions(t *testing.T) {
	const n = 8

	direct := newStack(t, 41)
	pDirect := NewService(direct.engine, direct.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: n, QueueDepth: n}),
		WithoutBatching(),
		WithoutLanes(), // scalar passes: the ECALL-amortization property under test
	)
	directTransitions := runConcurrent(t, direct, pDirect, n)
	pDirect.Close()

	batched := newStack(t, 42)
	pBatched := NewService(batched.engine, batched.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: n, QueueDepth: n}),
		// A generous window so even a slow CI box coalesces all n jobs.
		WithBatcherConfig(BatcherConfig{MaxBatch: 1 << 14, Window: 100 * time.Millisecond}),
		WithoutLanes(),
	)
	batchedTransitions := runConcurrent(t, batched, pBatched, n)
	pBatched.Close()

	// The model has two enclave layers (sigmoid, pool-divide): direct mode
	// pays 2n transitions; cross-request batching must pay fewer.
	t.Logf("transitions for %d concurrent inferences: direct=%d batched=%d", n, directTransitions, batchedTransitions)
	if directTransitions != 2*n {
		t.Fatalf("direct mode made %d transitions, want %d", directTransitions, 2*n)
	}
	if batchedTransitions >= directTransitions {
		t.Fatalf("batching did not amortize: %d >= %d transitions", batchedTransitions, directTransitions)
	}
	if saved := pBatched.Metrics.Counter("serve.ecalls.saved").Value(); saved <= 0 {
		t.Fatalf("ecalls.saved = %d, want > 0", saved)
	}
	if pBatched.Metrics.Counter("serve.jobs.completed").Value() != n {
		t.Fatal("completed-job counter mismatch")
	}
}

func TestPipelineSequentialStillCorrect(t *testing.T) {
	st := newStack(t, 43)
	p := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: 2, QueueDepth: 4}),
		WithBatcherConfig(BatcherConfig{Window: 2 * time.Millisecond}),
		WithoutLanes(),
	)
	defer p.Close()
	// One at a time: every batch flushes on the window with occupancy 1.
	for i := 0; i < 3; i++ {
		img := testImage(uint64(200 + i))
		ci, err := st.client.EncryptImages([]*nn.Tensor{img}, serveConfig().PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Infer(context.Background(), Request{Image: ci})
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.client.DecryptValues(res.Logits)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.engine.ReferenceForward(img)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("solo inference %d logit %d mismatch", i, j)
			}
		}
	}
}

func TestPipelineCancelledJobSkipsEnclave(t *testing.T) {
	st := newStack(t, 44)
	p := NewService(st.engine, st.svc,
		WithSchedulerConfig(SchedulerConfig{Workers: 1, QueueDepth: 4}),
		WithoutLanes(),
	)
	defer p.Close()
	ci, err := st.client.EncryptImages([]*nn.Tensor{testImage(300)}, serveConfig().PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Infer(ctx, Request{Image: ci}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestOpValidation pins the unified op API's argument checking.
func TestOpValidation(t *testing.T) {
	cases := []struct {
		op core.NonlinearOp
		ok bool
	}{
		{core.NonlinearOp{Kind: core.OpActivation, Act: int(nn.Sigmoid), InScale: 1, OutScale: 1}, true},
		{core.NonlinearOp{Kind: core.OpActivation, Act: int(nn.Sigmoid)}, false},
		{core.NonlinearOp{Kind: core.OpPoolDivide, Divisor: 4}, true},
		{core.NonlinearOp{Kind: core.OpPoolDivide}, false},
		{core.NonlinearOp{Kind: core.OpPoolFull, Geometry: core.Geometry{Channels: 1, Height: 4, Width: 4, Window: 2}}, true},
		{core.NonlinearOp{Kind: core.OpPoolFull, Geometry: core.Geometry{Channels: 1, Height: 4, Width: 4, Window: 3}}, false},
		{core.NonlinearOp{Kind: core.OpPoolMax}, false},
		{core.NonlinearOp{Kind: core.OpRefresh}, true},
		{core.NonlinearOp{Kind: core.OpKind(99)}, false},
	}
	for i, c := range cases {
		err := c.op.Validate()
		if c.ok && err != nil {
			t.Errorf("case %d (%s): unexpected error %v", i, c.op.Kind, err)
		}
		if !c.ok && err == nil {
			t.Errorf("case %d (%s): validation passed, want error", i, c.op.Kind)
		}
	}
	if fmt.Sprint(core.OpActivation, core.OpRefresh) != "activation refresh" {
		t.Error("op kind names changed")
	}
}

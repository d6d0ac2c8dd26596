package core

import (
	"context"
	mrand "math/rand/v2"
	"sync"
	"testing"

	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
	"hesgx/internal/stats"
)

// Equivalence tests for the NTT-resident linear-layer kernel: the
// evaluation-form pipeline (inputs hoisted once, fused pointwise
// multiply-accumulate, one inverse transform per output) must produce
// ciphertexts bit-identical to the per-product reference — one
// MulPlainOperand and one Add per weight, then the bias — which lives here,
// in the tests, as the oracle. The argument is linearity of the inverse NTT
// mod q; these tests pin the implementation to it.

// perProductLinear is the oracle: linear step s over in (c×h×w) computed
// one full ciphertext×plaintext product at a time. Fully connected steps
// are 1×1 convolutions over a 1×1 map, exactly as the engine plans them.
func perProductLinear(t testing.TB, e *HybridEngine, s *planStep, in []*he.Ciphertext, c, h, w int) []*he.Ciphertext {
	t.Helper()
	q := s.conv
	if s.kind == stepFC {
		c, h, w = len(in), 1, 1
	}
	if c != q.InC || len(in) != c*h*w {
		t.Fatalf("oracle %s input %d cts (%dx%dx%d), want inC=%d", s.label, len(in), c, h, w, q.InC)
	}
	oh, ow := q.OutSize(h), q.OutSize(w)
	out := make([]*he.Ciphertext, q.OutC*oh*ow)
	for o := 0; o < q.OutC; o++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc *he.Ciphertext
				for i := 0; i < q.InC; i++ {
					for ky := 0; ky < q.K; ky++ {
						for kx := 0; kx < q.K; kx++ {
							ct := in[(i*h+oy*q.Stride+ky)*w+ox*q.Stride+kx]
							term, err := e.eval.MulPlainOperand(ct, s.convOps[((o*q.InC+i)*q.K+ky)*q.K+kx])
							if err != nil {
								t.Fatal(err)
							}
							if acc == nil {
								acc = term
							} else if acc, err = e.eval.Add(acc, term); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				acc, err := e.eval.AddPlain(acc, s.convBias[o])
				if err != nil {
					t.Fatal(err)
				}
				out[(o*oh+oy)*ow+ox] = acc
			}
		}
	}
	return out
}

// recordedCall is one enclave call an engine made: the ciphertexts it sent
// and the ciphertexts it got back.
type recordedCall struct {
	in, out []*he.Ciphertext
}

// recordingCaller interposes on an engine's enclave calls so a test can
// recover the ciphertexts entering and leaving every plan step.
type recordingCaller struct {
	inner NonlinearCaller
	mu    sync.Mutex
	calls []recordedCall
}

func (r *recordingCaller) Nonlinear(ctx context.Context, op NonlinearOp, cts []*he.Ciphertext) ([]*he.Ciphertext, error) {
	out, err := r.inner.Nonlinear(ctx, op, cts)
	if err == nil {
		r.mu.Lock()
		r.calls = append(r.calls, recordedCall{in: cts, out: out})
		r.mu.Unlock()
	}
	return out, err
}

// inferAgainstOracle runs img through a TruePlainMul engine and checks
// every scalar-layout linear step's output ciphertexts against the
// per-product oracle over that step's recorded input. Each linear step must
// be the last step or feed an activation, so its output is what the next
// enclave call received. It returns the engine's result.
func inferAgainstOracle(t testing.TB, e *HybridEngine, img *CipherImage) *InferenceResult {
	t.Helper()
	rec := &recordingCaller{inner: e.svc}
	e.SetNonlinearCaller(rec)
	defer e.SetNonlinearCaller(nil)
	res, err := e.Infer(img)
	if err != nil {
		t.Fatal(err)
	}
	cts, c, h, w := img.CTs, img.Channels, img.Height, img.Width
	calls := rec.calls
	for i, s := range e.steps {
		switch s.kind {
		case stepConv, stepFC:
			out := res.Logits
			if i+1 < len(e.steps) {
				if e.steps[i+1].kind != stepAct || len(calls) == 0 {
					t.Fatalf("step %s does not feed an activation; its output is not observable", s.label)
				}
				out = calls[0].in
			}
			if !(img.Packed && i < packedPrefix(e.packed)) {
				assertSameCiphertexts(t, out, perProductLinear(t, e, s, cts, c, h, w))
			}
			if s.kind == stepFC {
				c, h, w = s.conv.OutC, 1, 1
			} else {
				c, h, w = s.conv.OutC, s.conv.OutSize(h), s.conv.OutSize(w)
			}
			cts = out
		case stepAct, stepPool:
			cts, calls = calls[0].out, calls[1:]
			if s.kind == stepPool {
				h, w = h/s.window, w/s.window
			}
		}
	}
	return res
}

func assertSameCiphertexts(t testing.TB, got, want []*he.Ciphertext) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("ciphertext count %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Form != he.CoeffForm || want[i].Form != he.CoeffForm {
			t.Fatalf("output %d not in coefficient form (%v vs %v)", i, got[i].Form, want[i].Form)
		}
		if got[i].Size() != want[i].Size() {
			t.Fatalf("output %d size %d != %d", i, got[i].Size(), want[i].Size())
		}
		for p := range got[i].Polys {
			if !got[i].Polys[p].Equal(want[i].Polys[p]) {
				t.Fatalf("output %d poly %d differs from the per-product oracle", i, p)
			}
		}
	}
}

// TestNTTResidentConvEquivalence is the property test over random conv
// shapes: for each geometry, the resident kernel and the per-product
// oracle emit bit-identical ciphertexts.
func TestNTTResidentConvEquivalence(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	cases := []struct {
		inC, outC, k, stride, size int
	}{
		{1, 2, 3, 1, 6},
		{2, 3, 3, 1, 5},
		{1, 1, 2, 2, 6},
		{3, 2, 2, 1, 4},
	}
	for ci, tc := range cases {
		rng := mrand.New(mrand.NewPCG(uint64(ci), 77))
		model := nn.NewNetwork(nn.NewConv2D(tc.inC, tc.outC, tc.k, tc.stride, rng))
		cfg := testConfig()
		cfg.TruePlainMul = true
		engine, err := newHybridEngine(svc, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		img := nn.NewTensor(tc.inC, tc.size, tc.size)
		for i := range img.Data {
			img.Data[i] = rng.Float64()*2 - 1
		}
		enc, err := client.encryptImageScalar(img, cfg.PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		inferAgainstOracle(t, engine, enc)
	}
}

// TestNTTResidentFCEquivalence is the FC-shape property test, including the
// parallel worker path.
func TestNTTResidentFCEquivalence(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	cases := []struct {
		in, out, workers int
	}{
		{12, 4, 0},
		{25, 10, 0},
		{16, 3, 4},
	}
	for ci, tc := range cases {
		rng := mrand.New(mrand.NewPCG(uint64(ci), 99))
		model := nn.NewNetwork(&nn.Flatten{}, nn.NewFullyConnected(tc.in, tc.out, rng))
		cfg := testConfig()
		cfg.TruePlainMul = true
		cfg.Workers = tc.workers
		engine, err := newHybridEngine(svc, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		img := nn.NewTensor(1, 1, tc.in)
		for i := range img.Data {
			img.Data[i] = rng.Float64()*2 - 1
		}
		enc, err := client.encryptImageScalar(img, cfg.PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		inferAgainstOracle(t, engine, enc)
	}
}

// TestNTTResidentCutsTransformCount pins the resident kernel's transform
// budget on a conv layer: every input is hoisted to evaluation form once
// and every output pays one inverse transform — O(inputs) forward +
// O(outputs) inverse instead of the per-product path's O(outputs×k²) of
// each — and the per-layer counters must land on the metrics registry.
func TestNTTResidentCutsTransformCount(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	rng := mrand.New(mrand.NewPCG(3, 33))
	model := nn.NewNetwork(nn.NewConv2D(1, 2, 3, 1, rng))
	cfg := testConfig()
	cfg.TruePlainMul = true
	engine, err := newHybridEngine(svc, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Weight operands are transformed once at encoding time, not per
	// inference; keep them out of the measured window.
	if err := engine.EncodeWeights(); err != nil {
		t.Fatal(err)
	}
	reg := stats.NewRegistry()
	engine.SetMetrics(reg)

	img := nn.NewTensor(1, 6, 6)
	for i := range img.Data {
		img.Data[i] = rng.Float64()
	}
	enc, err := client.encryptImageScalar(img, cfg.PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	r := params.Ring()
	f0, i0 := r.NTTCounts()
	if _, err := engine.Infer(enc); err != nil {
		t.Fatal(err)
	}
	f1, i1 := r.NTTCounts()

	// Geometry: 36 two-polynomial inputs, 2×4×4 = 32 outputs, 9-tap kernel.
	// Resident: 36·2 forward (the hoist) and 32·2 inverse (one per output
	// polynomial). The per-product path would pay 32·9·2 = 576 of each.
	const wantFwd, wantInv = 36 * 2, 32 * 2
	if fwd, inv := f1-f0, i1-i0; fwd != wantFwd || inv != wantInv {
		t.Fatalf("resident conv transforms: %d fwd / %d inv, want %d / %d", fwd, inv, wantFwd, wantInv)
	}
	snap := reg.Snapshot()
	if snap["engine.layer.conv.ntt_forward"] != wantFwd || snap["engine.layer.conv.ntt_inverse"] != wantInv {
		t.Fatalf("per-layer NTT counters missing from metrics snapshot: %v", snap)
	}
}

// TestNTTResidentFullPipelineEquivalence is the end-to-end acceptance
// criterion on the paper's full CNN (conv → sigmoid → mean-pool → FC) with
// parallel workers: the TruePlainMul pipeline's decrypted logits equal the
// plaintext oracle. The per-product oracle is checked ciphertext for
// ciphertext on the small shapes above and in differential_test.go; at
// this size it would cost ~95k full products.
func TestNTTResidentFullPipelineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size CNN equivalence skipped in short mode")
	}
	// Self-contained (own service and keys, no process-global counters),
	// so it shares the CPU with the other full-size CNN tests.
	t.Parallel()
	params, err := DefaultHybridParameters()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewEnclaveService(platform, params, WithKeySource(ring.NewSeededSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	client := testClient(t, svc)
	rng := mrand.New(mrand.NewPCG(7, 11))
	model := nn.PaperCNN(rng)
	cfg := DefaultConfig()
	cfg.TruePlainMul = true
	cfg.Workers = -1
	engine, err := newHybridEngine(svc, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := nn.NewTensor(1, 28, 28)
	for i := range img.Data {
		img.Data[i] = rng.Float64()
	}
	ci, err := client.encryptImageScalar(img, cfg.PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Infer(ci)
	if err != nil {
		t.Fatal(err)
	}
	logits, err := client.DecryptValues(res.Logits)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ReferenceForward(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if logits[i] != want[i] {
			t.Fatalf("logit %d: encrypted %d != reference %d", i, logits[i], want[i])
		}
	}
}

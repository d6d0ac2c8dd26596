package core

import (
	"testing"
	"time"

	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
)

// simdTestParams returns a batching-capable parameter set for the tiny CNN.
func simdTestParams(t testing.TB) he.Parameters {
	t.Helper()
	// prime tm ≡ 1 mod 2048 around 2^20
	tm, err := SIMDBatchingModulus(1024, 20)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ring.GenerateNTTPrime(46, 1024)
	if err != nil {
		t.Fatal(err)
	}
	p, err := he.NewParameters(1024, q, tm, he.DefaultDecompositionBase)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The engine derives SIMD execution from the image, so the modulus check
// happens per inference: a lane-packed image over a non-batching modulus is
// rejected before any work.
func TestSIMDEngineRequiresBatchingModulus(t *testing.T) {
	params := testParams(t) // t = 2^20, not ≡ 1 mod 2n
	svc := testService(t, params)
	client := testClient(t, svc)
	cfg := testConfig()
	engine, err := newHybridEngine(svc, tinyCNN(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := client.encryptImageScalar(tinyImage(1), cfg.PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	ci.Lanes = 2 // claim a slot-packed batch the modulus cannot carry
	if _, err := engine.Infer(ci); err == nil {
		t.Fatal("engine ran a lane-packed image over a non-batching modulus")
	}
}

func TestEncryptImageBatchValidation(t *testing.T) {
	params := simdTestParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	if _, err := client.EncryptImages(nil, 63); err == nil {
		t.Fatal("empty batch accepted")
	}
	a := tinyImage(1)
	b := tinyImage(2)
	bad := tinyImage(3)
	bad.Shape = []int{1, 4, 16} // same data length, different shape
	if _, err := client.EncryptImages([]*nnTensor{}, 63); err == nil {
		t.Fatal("empty slice accepted")
	}
	if _, err := client.EncryptImages(toTensors(a, bad), 63); err == nil {
		t.Fatal("mismatched shapes accepted")
	}
	if _, err := client.EncryptImages(toTensors(a, b), 63); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

func TestSIMDHybridBatchInferenceExact(t *testing.T) {
	params := simdTestParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	model := tinyCNN(31)
	cfg := testConfig()
	engine, err := newHybridEngine(svc, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const batchSize = 5
	imgs := make([]*nnTensor, batchSize)
	for i := range imgs {
		imgs[i] = tinyImage(uint64(40 + i))
	}
	ci, err := client.EncryptImages(toTensors(imgs...), cfg.PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Infer(ci)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.DecryptValueBatch(res.Logits, batchSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range imgs {
		want, err := engine.ReferenceForward(img)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("image %d logit %d: SIMD %d != reference %d", i, j, got[i][j], want[j])
			}
		}
	}
}

func TestSIMDStrategiesExact(t *testing.T) {
	// SIMD must stay exact under both pooling strategies and max pooling.
	params := simdTestParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	for _, strategy := range []PoolStrategy{PoolSGXDiv, PoolSGXPool} {
		model := tinyCNN(51)
		cfg := testConfig()
		cfg.Pool = strategy
		engine, err := newHybridEngine(svc, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		imgs := toTensors(tinyImage(52), tinyImage(53))
		ci, err := client.EncryptImages(imgs, cfg.PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Infer(ci)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.DecryptValueBatch(res.Logits, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, img := range imgs {
			want, err := engine.ReferenceForward(img)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("strategy %d image %d logit %d: %d != %d", strategy, i, j, got[i][j], want[j])
				}
			}
		}
	}
}

func TestSIMDThroughputGain(t *testing.T) {
	// One SIMD pass over a batch should take about as long as one scalar
	// pass over a single image — the §VIII throughput claim. Timing is
	// noisy in CI, so only assert a loose bound.
	if testing.Short() {
		t.Skip("throughput comparison skipped in short mode")
	}
	params := simdTestParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	model := tinyCNN(61)

	// One engine serves both layouts: SIMD execution follows the image.
	cfg := testConfig()
	engine, err := newHybridEngine(svc, model, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const batchSize = 8
	imgs := make([]*nnTensor, batchSize)
	for i := range imgs {
		imgs[i] = tinyImage(uint64(70 + i))
	}

	start := time.Now()
	for _, img := range imgs {
		ci, err := client.encryptImageScalar(img, cfg.PixelScale)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Infer(ci); err != nil {
			t.Fatal(err)
		}
	}
	scalarTime := time.Since(start)

	start = time.Now()
	ci, err := client.EncryptImages(toTensors(imgs...), cfg.PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Infer(ci); err != nil {
		t.Fatal(err)
	}
	simdTime := time.Since(start)

	t.Logf("scalar %v for %d images, SIMD %v (%.1fx)", scalarTime, batchSize, simdTime,
		float64(scalarTime)/float64(simdTime))
	if simdTime > scalarTime {
		t.Fatalf("SIMD batch (%v) slower than %d scalar passes (%v)", simdTime, batchSize, scalarTime)
	}
}

// nnTensor aliases the tensor type for brevity in this file.
type nnTensor = nn.Tensor

func toTensors(ts ...*nnTensor) []*nnTensor { return ts }

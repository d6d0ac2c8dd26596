package core

import (
	mrand "math/rand/v2"
	"testing"

	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
)

// TestFullPaperCNNExactness runs the complete Fig. 7 CNN (28×28 input,
// 6×5×5 conv, Sigmoid, 2×2 mean-pool, FC-10) at the shipped default
// parameters and asserts the encrypted pipeline equals the plaintext
// integer reference bit for bit, with noise budget to spare — the §VII-B
// accuracy claim at full scale.
func TestFullPaperCNNExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size CNN test skipped in short mode")
	}
	// Self-contained (own service, registry and keys, no process-global
	// counters), so it shares the CPU with the other full-size CNN tests.
	t.Parallel()
	params, err := DefaultHybridParameters()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewEnclaveService(platform, params, WithKeySource(ring.NewSeededSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	client := testClient(t, svc)
	r := mrand.New(mrand.NewPCG(7, 11))
	model := nn.PaperCNN(r)
	cfg := DefaultConfig()
	engine, err := newHybridEngine(svc, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := nn.NewTensor(1, 28, 28)
	for i := range img.Data {
		img.Data[i] = r.Float64()
	}
	ci, err := client.encryptImageScalar(img, cfg.PixelScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Infer(ci)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.DecryptValues(res.Logits)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ReferenceForward(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: encrypted %d != reference %d", i, got[i], want[i])
		}
	}
	budget, err := client.NoiseBudget(res.Logits[0])
	if err != nil {
		t.Fatal(err)
	}
	if budget < 2 {
		t.Fatalf("final noise budget %.1f too thin for reliable decryption", budget)
	}
	t.Logf("full CNN exact; final noise budget %.1f bits", budget)
}

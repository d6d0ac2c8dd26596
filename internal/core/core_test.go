package core

import (
	"context"
	"math"
	mrand "math/rand/v2"
	"testing"

	"hesgx/internal/attest"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
)

// testParams is a small parameter set adequate for the tiny test CNN.
func testParams(t testing.TB) he.Parameters {
	t.Helper()
	q, err := ring.GenerateNTTPrime(46, 1024)
	if err != nil {
		t.Fatal(err)
	}
	p, err := he.NewParameters(1024, q, 1<<20, he.DefaultDecompositionBase)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testConfig scales sized for the tiny test CNN under testParams.
func testConfig() Config {
	return Config{PixelScale: 63, WeightScale: 16, ActScale: 256, Pool: PoolAuto}
}

// testKeySeed seeds the key source of testService's enclave.
const testKeySeed = 77

func testService(t testing.TB, params he.Parameters) *EnclaveService {
	t.Helper()
	platform, err := sgx.NewPlatform(sgx.ZeroCost(), sgx.WithJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewEnclaveService(platform, params, WithKeySource(ring.NewSeededSource(testKeySeed)))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// tinyCNN is a scaled-down Fig. 7 network for fast tests: 8×8 input,
// conv 2×(3×3) -> sigmoid -> 2×2 mean-pool -> FC 4.
func tinyCNN(seed uint64) *nn.Network {
	r := mrand.New(mrand.NewPCG(seed, seed^1))
	return nn.NewNetwork(
		nn.NewConv2D(1, 2, 3, 1, r),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(2*3*3, 4, r),
	)
}

func tinyImage(seed uint64) *nn.Tensor {
	r := mrand.New(mrand.NewPCG(seed, seed^2))
	img := nn.NewTensor(1, 8, 8)
	for i := range img.Data {
		img.Data[i] = r.Float64()
	}
	return img
}

// testClient builds a client with keys installed via the full attested
// exchange.
func testClient(t testing.TB, svc *EnclaveService) *Client {
	t.Helper()
	client, err := NewClient()
	if err != nil {
		t.Fatal(err)
	}
	verifier := attest.NewService()
	verifier.RegisterPlatform(svc.Enclave().Platform().AttestationPublicKey())
	verifier.TrustMeasurement(svc.Enclave().Measurement())
	if _, err := client.RunKeyExchange(svc, verifier); err != nil {
		t.Fatal(err)
	}
	return client
}

func TestKeyExchangeDeliversWorkingKeys(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	if !client.Ready() {
		t.Fatal("client not ready after exchange")
	}
	if !client.Params.Equal(params) {
		t.Fatal("client received wrong parameters")
	}
	// The delivered keys must interoperate with the enclave: encrypt with
	// the client's key, refresh in the enclave, decrypt with the client's.
	img := tinyImage(1)
	ci, err := client.encryptImageScalar(img, 63)
	if err != nil {
		t.Fatal(err)
	}
	refreshed, err := svc.Nonlinear(context.Background(), NonlinearOp{Kind: OpRefresh}, ci.CTs[:3])
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.DecryptValues(refreshed)
	if err != nil {
		t.Fatal(err)
	}
	want := nn.QuantizeImage(img, 63)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("refreshed pixel %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestKeyExchangeRejectsImpostorEnclave(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client, err := NewClient()
	if err != nil {
		t.Fatal(err)
	}
	verifier := attest.NewService()
	verifier.RegisterPlatform(svc.Enclave().Platform().AttestationPublicKey())
	// Trust a DIFFERENT measurement: the genuine quote must be rejected.
	verifier.TrustMeasurement([32]byte{1, 2, 3})
	if _, err := client.RunKeyExchange(svc, verifier); err == nil {
		t.Fatal("exchange succeeded against untrusted measurement")
	}
	if client.Ready() {
		t.Fatal("client installed keys despite failed attestation")
	}
}

func TestProvisionPayloadUnreadableByServer(t *testing.T) {
	// The provisioning payload is bound to the client's ECDH key; a
	// different key cannot decrypt it.
	params := testParams(t)
	svc := testService(t, params)
	client, _ := NewClient()
	payload, err := svc.ProvisionKeys(client.ECDHPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	eavesdropper, _ := NewClient()
	if err := eavesdropper.installProvisionPayload(payload); err == nil {
		t.Fatal("eavesdropper decrypted the key payload")
	}
	if err := client.installProvisionPayload(payload); err != nil {
		t.Fatalf("legitimate client failed: %v", err)
	}
}

func TestEnclaveSigmoidMatchesPlaintext(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	inScale, outScale := uint64(256), uint64(256)
	values := []int64{-512, -256, -100, 0, 77, 256, 511}
	var cts []*he.Ciphertext
	enc, _ := he.NewEncryptor(client.PublicKey(), ring.NewSeededSource(5))
	for _, v := range values {
		r := v % int64(params.T)
		if r < 0 {
			r += int64(params.T)
		}
		ct, err := enc.EncryptScalar(uint64(r))
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
	}
	out, err := svc.Nonlinear(context.Background(), NonlinearOp{Kind: OpActivation, Act: int(nn.Sigmoid), InScale: inScale, OutScale: outScale}, cts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.DecryptValues(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		x := float64(v) / float64(inScale)
		want := int64(math.Round(1 / (1 + math.Exp(-x)) * float64(outScale)))
		if got[i] != want {
			t.Fatalf("sigmoid(%d): got %d want %d", v, got[i], want)
		}
	}
}

func TestEnclavePoolDivide(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	enc, _ := he.NewEncryptor(client.PublicKey(), ring.NewSeededSource(6))
	sums := []int64{100, 7, -9, 0}
	var cts []*he.Ciphertext
	for _, v := range sums {
		r := v % int64(params.T)
		if r < 0 {
			r += int64(params.T)
		}
		ct, _ := enc.EncryptScalar(uint64(r))
		cts = append(cts, ct)
	}
	out, err := svc.Nonlinear(context.Background(), NonlinearOp{Kind: OpPoolDivide, Divisor: 4}, cts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.DecryptValues(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{25, 2, -2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("divide %d/4: got %d want %d", sums[i], got[i], want[i])
		}
	}
	if _, err := svc.Nonlinear(context.Background(), NonlinearOp{Kind: OpPoolDivide, Divisor: 0}, cts); err == nil {
		t.Fatal("divide by zero accepted")
	}
}

func TestEnclavePoolFullAndMax(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	enc, _ := he.NewEncryptor(client.PublicKey(), ring.NewSeededSource(7))
	// One 4x4 channel.
	vals := []int64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	var cts []*he.Ciphertext
	for _, v := range vals {
		ct, _ := enc.EncryptScalar(uint64(v))
		cts = append(cts, ct)
	}
	mean, err := svc.Nonlinear(context.Background(), NonlinearOp{
		Kind: OpPoolFull, Geometry: Geometry{Channels: 1, Height: 4, Width: 4, Window: 2},
	}, cts)
	if err != nil {
		t.Fatal(err)
	}
	gotMean, _ := client.DecryptValues(mean)
	wantMean := []int64{4, 6, 12, 14} // round-half-up of 3.5, 5.5, 11.5, 13.5
	for i := range wantMean {
		if gotMean[i] != wantMean[i] {
			t.Fatalf("mean pool[%d]: got %d want %d", i, gotMean[i], wantMean[i])
		}
	}
	maxOut, err := svc.Nonlinear(context.Background(), NonlinearOp{
		Kind: OpPoolMax, Geometry: Geometry{Channels: 1, Height: 4, Width: 4, Window: 2},
	}, cts)
	if err != nil {
		t.Fatal(err)
	}
	gotMax, _ := client.DecryptValues(maxOut)
	wantMax := []int64{6, 8, 14, 16}
	for i := range wantMax {
		if gotMax[i] != wantMax[i] {
			t.Fatalf("max pool[%d]: got %d want %d", i, gotMax[i], wantMax[i])
		}
	}
	if _, err := svc.Nonlinear(context.Background(), NonlinearOp{
		Kind: OpPoolFull, Geometry: Geometry{Channels: 1, Height: 3, Width: 4, Window: 2},
	}, cts); err == nil {
		t.Fatal("indivisible geometry accepted")
	}
	if _, err := svc.Nonlinear(context.Background(), NonlinearOp{
		Kind: OpPoolFull, Geometry: Geometry{Channels: 1, Height: 4, Width: 4, Window: 3},
	}, cts); err == nil {
		t.Fatal("wrong window accepted")
	}
}

func TestRefreshRestoresNoiseBudget(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	enc, _ := he.NewEncryptor(client.PublicKey(), ring.NewSeededSource(8))
	eval, _ := he.NewEvaluator(params)

	ct, _ := enc.EncryptScalar(9)
	// Burn budget with repeated scalar multiplications (kept small enough
	// that decryption stays correct before the refresh).
	burned := ct
	for i := 0; i < 3; i++ {
		var err error
		burned, err = eval.MulScalar(burned, 10)
		if err != nil {
			t.Fatal(err)
		}
	}
	before, _ := client.NoiseBudget(burned)
	refreshed, err := svc.Nonlinear(context.Background(), NonlinearOp{Kind: OpRefresh}, []*he.Ciphertext{burned})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := client.NoiseBudget(refreshed[0])
	if after <= before {
		t.Fatalf("refresh did not improve budget: %.1f -> %.1f", before, after)
	}
	// Value preserved: 9 * 10^3 mod t.
	want := int64(9)
	for i := 0; i < 3; i++ {
		want = want * 10 % int64(params.T)
	}
	half := int64(params.T / 2)
	if want > half {
		want -= int64(params.T)
	}
	got, _ := client.DecryptValues(refreshed)
	if got[0] != want {
		t.Fatalf("refresh changed value: got %d want %d", got[0], want)
	}
}

func TestRefreshCollapsesSize3(t *testing.T) {
	// ct x ct multiplication needs a small plaintext modulus for noise
	// headroom at n=1024 (the same tension that drove the paper's t=4).
	q, err := ring.GenerateNTTPrime(46, 1024)
	if err != nil {
		t.Fatal(err)
	}
	params, err := he.NewParameters(1024, q, 257, he.DefaultDecompositionBase)
	if err != nil {
		t.Fatal(err)
	}
	svc := testService(t, params)
	client := testClient(t, svc)
	enc, _ := he.NewEncryptor(client.PublicKey(), ring.NewSeededSource(9))
	eval, _ := he.NewEvaluator(params)
	a, _ := enc.EncryptScalar(30)
	b, _ := enc.EncryptScalar(4)
	prod, err := eval.Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Size() != 3 {
		t.Fatal("expected size-3 product")
	}
	refreshed, err := svc.Nonlinear(context.Background(), NonlinearOp{Kind: OpRefresh}, []*he.Ciphertext{prod})
	if err != nil {
		t.Fatal(err)
	}
	if refreshed[0].Size() != 2 {
		t.Fatalf("refresh output size %d", refreshed[0].Size())
	}
	got, _ := client.DecryptValues(refreshed)
	if got[0] != 120 {
		t.Fatalf("30*4 = %d", got[0])
	}
}

func TestChoosePoolStrategy(t *testing.T) {
	if ChoosePoolStrategy(2) != PoolSGXPool {
		t.Fatal("window 2 should use SGXPool")
	}
	if ChoosePoolStrategy(3) != PoolSGXDiv {
		t.Fatal("window 3 should use SGXDiv")
	}
	if ChoosePoolStrategy(6) != PoolSGXDiv {
		t.Fatal("window 6 should use SGXDiv")
	}
}

// hybridEndToEnd runs the full encrypted pipeline and the plaintext
// integer reference, asserting bit-exact agreement.
func hybridEndToEnd(t *testing.T, cfg Config, seed uint64) {
	t.Helper()
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	model := tinyCNN(seed)
	engine, err := newHybridEngine(svc, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := tinyImage(seed)
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
	if len(got) != len(want) {
		t.Fatalf("logit count %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: encrypted %d != reference %d", i, got[i], want[i])
		}
	}
	// Budget must remain positive at the end.
	budget, err := client.NoiseBudget(res.Logits[0])
	if err != nil {
		t.Fatal(err)
	}
	if budget <= 0 {
		t.Fatalf("final noise budget %.1f", budget)
	}
}

func TestHybridInferenceMatchesReference(t *testing.T) {
	hybridEndToEnd(t, testConfig(), 11)
}

func TestHybridInferenceSGXPoolStrategy(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = PoolSGXPool
	hybridEndToEnd(t, cfg, 12)
}

func TestHybridInferenceSGXDivStrategy(t *testing.T) {
	cfg := testConfig()
	cfg.Pool = PoolSGXDiv
	hybridEndToEnd(t, cfg, 13)
}

func TestHybridInferenceTruePlainMul(t *testing.T) {
	cfg := testConfig()
	cfg.TruePlainMul = true
	hybridEndToEnd(t, cfg, 14)
}

func TestHybridInferenceSingleECalls(t *testing.T) {
	cfg := testConfig()
	cfg.SingleECalls = true
	hybridEndToEnd(t, cfg, 15)
}

func TestHybridStrategiesAgree(t *testing.T) {
	// SGXDiv and SGXPool must produce identical values (both compute true
	// rounded mean pooling).
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	model := tinyCNN(16)
	img := tinyImage(16)
	run := func(strategy PoolStrategy) []int64 {
		cfg := testConfig()
		cfg.Pool = strategy
		engine, err := newHybridEngine(svc, model, cfg)
		if err != nil {
			t.Fatal(err)
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
		return got
	}
	div := run(PoolSGXDiv)
	pool := run(PoolSGXPool)
	for i := range div {
		if div[i] != pool[i] {
			t.Fatalf("strategies disagree at logit %d: %d vs %d", i, div[i], pool[i])
		}
	}
}

func TestHybridMaxPool(t *testing.T) {
	r := mrand.New(mrand.NewPCG(17, 18))
	model := nn.NewNetwork(
		nn.NewConv2D(1, 2, 3, 1, r),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MaxPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(2*3*3, 3, r),
	)
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	engine, err := newHybridEngine(svc, model, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := tinyImage(17)
	ci, _ := client.encryptImageScalar(img, 63)
	res, err := engine.Infer(ci)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := client.DecryptValues(res.Logits)
	want, err := engine.ReferenceForward(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("maxpool logit %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestHybridArgmaxMatchesFloatModel(t *testing.T) {
	// Prediction preservation: the quantized hybrid result should usually
	// pick the same class as the float model.
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	model := tinyCNN(19)
	cfg := testConfig()
	engine, err := newHybridEngine(svc, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		img := tinyImage(uint64(100 + trial))
		floatOut, err := model.Forward(img)
		if err != nil {
			t.Fatal(err)
		}
		ci, _ := client.encryptImageScalar(img, cfg.PixelScale)
		res, err := engine.Infer(ci)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := client.DecryptValues(res.Logits)
		arg, best := 0, int64(math.MinInt64)
		for i, v := range got {
			if v > best {
				arg, best = i, v
			}
		}
		if arg == floatOut.ArgMax() {
			agree++
		}
	}
	if agree < trials-1 {
		t.Fatalf("only %d/%d predictions agree with float model", agree, trials)
	}
}

func TestEngineRejectsBadConfigs(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	model := tinyCNN(20)
	if _, err := newHybridEngine(nil, model, testConfig()); err == nil {
		t.Fatal("nil service accepted")
	}
	if _, err := newHybridEngine(svc, model, Config{}); err == nil {
		t.Fatal("zero scales accepted")
	}
	// Magnitude overflow: absurd scales must be rejected at plan time.
	big := Config{PixelScale: 1 << 20, WeightScale: 1 << 20, ActScale: 1 << 20}
	if _, err := newHybridEngine(svc, model, big); err == nil {
		t.Fatal("overflowing scales accepted")
	}
	// SumPool belongs to the baseline.
	r := mrand.New(mrand.NewPCG(1, 2))
	sumModel := nn.NewNetwork(
		nn.NewConv2D(1, 1, 3, 1, r),
		nn.NewPool2D(nn.SumPool, 2),
	)
	if _, err := newHybridEngine(svc, sumModel, testConfig()); err == nil {
		t.Fatal("SumPool accepted by hybrid engine")
	}
}

func TestEngineRejectsMismatchedImage(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	client := testClient(t, svc)
	engine, err := newHybridEngine(svc, tinyCNN(21), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := tinyImage(21)
	ci, _ := client.encryptImageScalar(img, 17) // wrong scale
	if _, err := engine.Infer(ci); err == nil {
		t.Fatal("wrong image scale accepted")
	}
	if _, err := engine.Infer(nil); err == nil {
		t.Fatal("nil image accepted")
	}
}

func TestEncodedWeightCount(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	engine, err := newHybridEngine(svc, tinyCNN(22), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// conv: 2*1*3*3 + 2 = 20; fc: 4*18 + 4 = 76.
	if got := engine.EncodedWeightCount(); got != 96 {
		t.Fatalf("EncodedWeightCount = %d, want 96", got)
	}
	if err := engine.EncodeWeights(); err != nil {
		t.Fatal(err)
	}
	if err := engine.EncodeWeights(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestReferencePoolErrors(t *testing.T) {
	if _, err := referencePool(make([]int64, 12), 1, 3, 4, 2, nn.MeanPool); err == nil {
		t.Fatal("indivisible reference pool accepted")
	}
}

func TestDivRound(t *testing.T) {
	tests := []struct{ v, d, want int64 }{
		{7, 2, 4}, {-7, 2, -4}, {6, 3, 2}, {-6, 3, -2}, {0, 5, 0}, {9, 4, 2}, {10, 4, 3},
	}
	for _, tt := range tests {
		if got := divRound(tt.v, tt.d); got != tt.want {
			t.Fatalf("divRound(%d, %d) = %d, want %d", tt.v, tt.d, got, tt.want)
		}
	}
}

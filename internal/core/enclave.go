package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sync"

	"hesgx/internal/diag"
	"hesgx/internal/encoding"
	"hesgx/internal/he"
	"hesgx/internal/ring"
	"hesgx/internal/sgx"
	"hesgx/internal/stats"
)

// lockedSource serializes access to a randomness source so concurrent
// ECALLs can share it safely.
type lockedSource struct {
	mu  sync.Mutex
	src ring.Source
}

func (l *lockedSource) Uint64() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.src.Uint64()
}

// ECALL names exported by the inference enclave.
const (
	ECallProvision  = "provision"
	ECallActivation = "activation"
	ECallPoolDivide = "pool_divide"
	ECallPoolFull   = "pool_full"
	ECallPoolMax    = "pool_max"
	ECallRefresh    = "refresh"
	ECallLanePack   = "lane_pack"
	ECallLaneDemux  = "lane_demux"
	ECallPoolUnpack = "pool_unpack"
	ECallGaloisKeys = "galois_keys"
)

// EnclaveName identifies the inference enclave; it feeds the measurement.
const EnclaveName = "hesgx-inference-enclave"

// EnclaveVersion feeds the measurement; bump on trusted-code changes.
const EnclaveVersion = "1.5.0"

// EnclaveService hosts the trusted half of the framework on an SGX
// platform: FV key generation and custody, key provisioning via ECDH for
// attestation-protected delivery, and the decrypt–compute–re-encrypt ECALLs
// for non-polynomial layers (§IV-D) and noise refresh (§IV-E).
//
// The untrusted server code only ever sees ciphertexts and the public key;
// the secret key lives inside the enclave state.
type EnclaveService struct {
	params  he.Parameters
	enclave *sgx.Enclave

	// metrics, when set, receives per-ECALL latency histograms and
	// transition/paging counters (untrusted-side observability only).
	metrics *stats.Registry
	// logger, when set, receives low-budget warnings (nil: silent).
	logger *slog.Logger
	// noiseWarnBits is the measured-budget floor below which Nonlinear
	// raises the low-budget alert (<= 0: alerting disabled).
	noiseWarnBits float64
	// events, when set, receives a diag event for every low-budget alert.
	events *diag.Bus

	// trusted state (conceptually inside the enclave)
	state *enclaveState
}

// SetMetrics attaches a registry that receives per-ECALL latency
// histograms ("ecall.<op>_ms") and transition/page-fault counters from
// every Nonlinear call. Call before serving traffic.
func (s *EnclaveService) SetMetrics(reg *stats.Registry) { s.metrics = reg }

// enclaveState is the data held inside the enclave. The FV keys rest as
// serialized blobs (as they would in sealed storage); every ECALL loads and
// re-derives working key objects, the behavior behind the paper's Table V
// observation that batching lets "the encryption and decryption keys ...
// be loaded once" per boundary crossing.
type enclaveState struct {
	params he.Parameters
	// skBytes/pkBytes are the at-rest serialized keys.
	skBytes []byte
	pkBytes []byte
	// keyBlob is the serialized key material delivered to users.
	keyBlob []byte
	// src feeds re-encryption randomness.
	src ring.Source
	// scalar is the one-value-per-ciphertext codec.
	scalar scalarCodec
	// cachedPK is retained only to answer the untrusted PublicKey()
	// accessor; trusted code paths load from pkBytes.
	cachedPK *he.PublicKey

	// batchOnce lazily builds the slot codec for SIMD requests; batchErr
	// records an unsupported plaintext modulus.
	batchOnce sync.Once
	batchEnc  *encoding.BatchEncoder
	batchErr  error

	// packedOnce lazily builds the rotation-aware slot codec for
	// pool-unpack requests (same modulus requirement as batching, but
	// slots addressed by root exponent so Galois rotations are row shifts).
	packedOnce sync.Once
	packedEnc  *encoding.PackedEncoder
	packedErr  error
}

// slotCodec returns the CRT slot encoder for SIMD requests.
func (st *enclaveState) slotCodec() (*encoding.BatchEncoder, error) {
	st.batchOnce.Do(func() {
		st.batchEnc, st.batchErr = encoding.NewBatchEncoder(st.params)
	})
	return st.batchEnc, st.batchErr
}

// packedCodec returns the rotation-aware slot encoder for packed layouts.
func (st *enclaveState) packedCodec() (*encoding.PackedEncoder, error) {
	st.packedOnce.Do(func() {
		st.packedEnc, st.packedErr = encoding.NewPackedEncoder(st.params)
	})
	return st.packedEnc, st.packedErr
}

// loadedKeys are the working key objects an ECALL derives from the at-rest
// blobs on entry. pk is retained so encryptVectors can derive additional
// encryptors for parallel re-encryption (encryptors own samplers and are
// not safe to share across goroutines).
type loadedKeys struct {
	dec *he.Decryptor
	enc *he.Encryptor
	pk  *he.PublicKey
}

// loadKeys deserializes and re-derives the FV keys, charging the enclave
// for the very real work (parse + NTT precomputation) every boundary
// crossing pays.
func (st *enclaveState) loadKeys(ctx *sgx.Context) (*loadedKeys, error) {
	ctx.Touch(len(st.skBytes) + len(st.pkBytes))
	sk, err := he.UnmarshalSecretKey(st.skBytes)
	if err != nil {
		return nil, fmt.Errorf("loading secret key: %w", err)
	}
	pk, err := he.UnmarshalPublicKey(st.pkBytes)
	if err != nil {
		return nil, fmt.Errorf("loading public key: %w", err)
	}
	dec, err := he.NewDecryptor(sk)
	if err != nil {
		return nil, err
	}
	enc, err := he.NewEncryptor(pk, st.src)
	if err != nil {
		return nil, err
	}
	return &loadedKeys{dec: dec, enc: enc, pk: pk}, nil
}

// DefaultNoiseWarnBudgetBits is the default measured-budget floor: when the
// worst ciphertext entering an SGX refresh has fewer remaining bits than
// this, the service logs a warning and increments the
// "noise.low_budget_alerts" counter. A handful of bits of headroom is the
// difference between a refresh that saves the ciphertext and one that
// re-encrypts garbage, so the alert fires while decryption is still exact.
const DefaultNoiseWarnBudgetBits = 8

// ServiceOption customizes enclave service construction.
type ServiceOption func(*serviceConfig)

type serviceConfig struct {
	keySource     ring.Source
	logger        *slog.Logger
	noiseWarnBits float64
	events        *diag.Bus
}

// WithKeySource overrides the randomness used for FV key generation and
// re-encryption inside the enclave (tests use a seeded source).
func WithKeySource(src ring.Source) ServiceOption {
	return func(c *serviceConfig) { c.keySource = src }
}

// WithServiceLogger attaches a structured logger for low-budget warnings
// and other service-level events.
func WithServiceLogger(l *slog.Logger) ServiceOption {
	return func(c *serviceConfig) { c.logger = l }
}

// WithNoiseWarnThreshold overrides the low-budget alert floor in bits
// (DefaultNoiseWarnBudgetBits by default; <= 0 disables alerting).
func WithNoiseWarnThreshold(bits float64) ServiceOption {
	return func(c *serviceConfig) { c.noiseWarnBits = bits }
}

// WithEventBus publishes a typed diag event (with the calling request's
// trace ID and the threshold context) each time the low-budget alert
// fires, feeding the postmortem capturer.
func WithEventBus(b *diag.Bus) ServiceOption {
	return func(c *serviceConfig) { c.events = b }
}

// NewEnclaveService launches the inference enclave on platform and
// generates the FV key material inside it.
func NewEnclaveService(platform *sgx.Platform, params he.Parameters, opts ...ServiceOption) (*EnclaveService, error) {
	if !params.Valid() {
		return nil, fmt.Errorf("core: invalid parameters")
	}
	cfg := serviceConfig{keySource: ring.NewCryptoSource(), noiseWarnBits: DefaultNoiseWarnBudgetBits}
	for _, o := range opts {
		o(&cfg)
	}

	scalar, err := encoding.NewScalarEncoder(params)
	if err != nil {
		return nil, err
	}
	state := &enclaveState{params: params, src: &lockedSource{src: cfg.keySource}, scalar: scalarCodec{scalar}}
	kg, err := he.NewKeyGenerator(params, cfg.keySource)
	if err != nil {
		return nil, fmt.Errorf("core: enclave key generator: %w", err)
	}
	sk, pk := kg.GenKeyPair()
	state.cachedPK = pk
	if state.skBytes, err = he.MarshalSecretKey(sk); err != nil {
		return nil, err
	}
	if state.pkBytes, err = he.MarshalPublicKey(pk); err != nil {
		return nil, err
	}

	var blob bytes.Buffer
	if err := he.WriteParameters(&blob, params); err != nil {
		return nil, err
	}
	if err := he.WriteSecretKey(&blob, sk); err != nil {
		return nil, err
	}
	if err := he.WritePublicKey(&blob, pk); err != nil {
		return nil, err
	}
	state.keyBlob = blob.Bytes()

	enclave, err := platform.Launch(sgx.Definition{
		Name:    EnclaveName,
		Version: EnclaveVersion,
		ECalls: map[string]sgx.ECallFunc{
			ECallProvision:  state.provision,
			ECallActivation: state.vectorECall(state.activation),
			ECallPoolDivide: state.vectorECall(state.poolDivide),
			ECallPoolFull:   state.vectorECall(state.poolFull),
			ECallPoolMax:    state.vectorECall(state.poolMax),
			ECallRefresh:    state.refresh,
			ECallLanePack:   state.vectorECall(state.lanePack),
			ECallLaneDemux:  state.vectorECall(state.laneDemux),
			ECallPoolUnpack: state.vectorECall(state.poolUnpack),
			ECallGaloisKeys: state.galoisKeys,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("core: launching enclave: %w", err)
	}
	return &EnclaveService{
		params:        params,
		enclave:       enclave,
		logger:        cfg.logger,
		noiseWarnBits: cfg.noiseWarnBits,
		events:        cfg.events,
		state:         state,
	}, nil
}

// Params returns the FV parameter set the enclave generated keys for.
func (s *EnclaveService) Params() he.Parameters { return s.params }

// Enclave exposes the underlying enclave (for attestation quoting).
func (s *EnclaveService) Enclave() *sgx.Enclave { return s.enclave }

// PublicKey returns the HE public key. The public key is not secret; the
// untrusted server may use it (e.g. for transparent re-encryption tests),
// while users receive it through the attested channel.
func (s *EnclaveService) PublicKey() *he.PublicKey { return s.state.cachedPK }

// touchKeys accounts the enclave-resident key material against the EPC.
func (st *enclaveState) touchKeys(ctx *sgx.Context) {
	ctx.Touch(st.params.N * 8 * 4) // sk, pk (2 polys), scratch
}

// provision answers a key-delivery request: input is the user's ephemeral
// ECDH public key (P-256, uncompressed). The enclave derives a shared
// secret, encrypts the FV key blob under it, and returns
// enclavePub || nonce || ciphertext — which the server embeds, untouched,
// in an attestation quote's user-data field. Only the requesting user can
// decrypt, and the quote signature proves the payload came from this
// enclave (§IV-A without any external trusted third party).
func (st *enclaveState) provision(ctx *sgx.Context, input []byte) ([]byte, error) {
	st.touchKeys(ctx)
	curve := ecdh.P256()
	userPub, err := curve.NewPublicKey(input)
	if err != nil {
		return nil, fmt.Errorf("invalid user ECDH key: %w", err)
	}
	eph, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generating enclave ECDH key: %w", err)
	}
	shared, err := eph.ECDH(userPub)
	if err != nil {
		return nil, fmt.Errorf("ECDH agreement: %w", err)
	}
	key := sha256.Sum256(append([]byte("hesgx/core/provision/v1"), shared...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	sealed := gcm.Seal(nil, nonce, st.keyBlob, nil)

	var out bytes.Buffer
	ephPub := eph.PublicKey().Bytes()
	writeU32(&out, uint32(len(ephPub)))
	out.Write(ephPub)
	writeU32(&out, uint32(len(nonce)))
	out.Write(nonce)
	writeU32(&out, uint32(len(sealed)))
	out.Write(sealed)
	ctx.Touch(len(st.keyBlob) * 2)
	return out.Bytes(), nil
}

// budgetMeter accumulates the invariant-noise budgets the enclave measures
// on the ciphertexts it decrypts — the "flight data" every non-linear ECALL
// reports back alongside its re-encrypted batch. Measurement is free: the
// decryption already computed the phase the budget falls out of.
type budgetMeter struct {
	min, sum float64
	n        int
}

func (m *budgetMeter) observe(bits float64) {
	if m.n == 0 || bits < m.min {
		m.min = bits
	}
	m.sum += bits
	m.n++
}

// wrap envelopes an encoded ciphertext batch with the measured budgets.
func (m *budgetMeter) wrap(cts []byte) []byte {
	rep := nonlinearReply{Measured: uint32(m.n), CTs: cts}
	if m.n > 0 {
		rep.BudgetMin = m.min
		rep.BudgetMean = m.sum / float64(m.n)
	}
	out := rep.marshal()
	// marshal copied cts into the reply envelope; recycle the batch buffer.
	putPayload(cts)
	return out
}

// vecCodec maps plaintexts to the value vectors trusted code computes on,
// and back. There are three: scalarCodec (one value in the constant
// coefficient), encoding.BatchEncoder (every CRT slot, §VIII) and
// encoding.PackedEncoder (rotation-addressed slot rows).
type vecCodec interface {
	Encode(vec []int64) (*he.Plaintext, error)
	Decode(pt *he.Plaintext) ([]int64, error)
}

// scalarCodec carries one value per ciphertext in the constant coefficient.
type scalarCodec struct{ enc *encoding.ScalarEncoder }

func (c scalarCodec) Encode(vec []int64) (*he.Plaintext, error) { return c.enc.Encode(vec[0]), nil }

func (c scalarCodec) Decode(pt *he.Plaintext) ([]int64, error) {
	return []int64{c.enc.Decode(pt)}, nil
}

// requestCodec picks the codec a request's SIMD flag selects.
func (st *enclaveState) requestCodec(req *nonlinearRequest) (vecCodec, error) {
	if req.SIMD == 0 {
		return st.scalar, nil
	}
	codec, err := st.slotCodec()
	if err != nil {
		return nil, fmt.Errorf("SIMD request: %w", err)
	}
	return codec, nil
}

// decryptVectors decrypts cts into value vectors with codec, fanning out
// across workers (the decryptor is safe to share), and folds each
// ciphertext's measured noise budget into meter in batch order.
func (st *enclaveState) decryptVectors(ctx *sgx.Context, keys *loadedKeys, cts []*he.Ciphertext, codec vecCodec, workers int, meter *budgetMeter) ([][]int64, error) {
	vecs := make([][]int64, len(cts))
	bits := make([]float64, len(cts))
	err := parallelFor(len(cts), workers, func(i int) error {
		pt, b, err := keys.dec.DecryptWithBudget(cts[i])
		if err != nil {
			return fmt.Errorf("decrypting batch element %d: %w", i, err)
		}
		bits[i] = b
		if vecs[i], err = codec.Decode(pt); err != nil {
			return fmt.Errorf("decoding batch element %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, b := range bits {
		meter.observe(b)
	}
	ctx.Touch(st.params.N * 8 * 2 * len(cts))
	return vecs, nil
}

// encryptVectors re-encrypts value vectors as fresh ciphertexts with codec
// and encodes the batch, splitting it into one contiguous range per worker.
// Worker 0 reuses keys.enc; the rest derive their own encryptor from the
// loaded public key, because encryptors own samplers and must not be shared
// across goroutines.
func (st *enclaveState) encryptVectors(ctx *sgx.Context, keys *loadedKeys, vecs [][]int64, codec vecCodec, workers int) ([]byte, error) {
	n := len(vecs)
	out := make([]*he.Ciphertext, n)
	workers = max(1, min(workers, n))
	chunk := (n + workers - 1) / workers
	err := parallelFor(workers, workers, func(w int) error {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		if lo >= hi {
			return nil
		}
		enc := keys.enc
		if w > 0 {
			var err error
			if enc, err = he.NewEncryptor(keys.pk, st.src); err != nil {
				return err
			}
		}
		for i := lo; i < hi; i++ {
			pt, err := codec.Encode(vecs[i])
			if err != nil {
				return fmt.Errorf("encoding element %d: %w", i, err)
			}
			if out[i], err = enc.Encrypt(pt); err != nil {
				return fmt.Errorf("re-encrypting element %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ctx.Touch(st.params.N * 8 * 2 * n)
	return encodeCiphertextBatch(out)
}

// vectorPlan is what one vector ECALL asks of the shared envelope: the
// codec that decodes its inputs, the codec that encodes its outputs, the
// worker count for both halves, and the plaintext computation between.
type vectorPlan struct {
	in, out vecCodec
	workers int
	compute func(vecs [][]int64) [][]int64
}

// vectorECall wraps a plan builder in the decrypt–compute–re-encrypt
// envelope every non-linear ECALL but refresh shares (§IV-D): key loading,
// request unmarshalling, decryption to vectors, re-encryption, and the
// reply carrying the measured budgets. plan validates the request against
// the n input ciphertexts before anything is decrypted.
func (st *enclaveState) vectorECall(plan func(req *nonlinearRequest, n int) (vectorPlan, error)) sgx.ECallFunc {
	return func(ctx *sgx.Context, input []byte) ([]byte, error) {
		st.touchKeys(ctx)
		keys, err := st.loadKeys(ctx)
		if err != nil {
			return nil, err
		}
		req, err := unmarshalNonlinearRequest(input)
		if err != nil {
			return nil, err
		}
		cts, err := decodeCiphertextBatch(req.CTs, st.params)
		if err != nil {
			return nil, err
		}
		p, err := plan(req, len(cts))
		if err != nil {
			return nil, err
		}
		var meter budgetMeter
		vecs, err := st.decryptVectors(ctx, keys, cts, p.in, p.workers, &meter)
		if err != nil {
			return nil, err
		}
		out, err := st.encryptVectors(ctx, keys, p.compute(vecs), p.out, p.workers)
		if err != nil {
			return nil, err
		}
		return meter.wrap(out), nil
	}
}

// elementwise plans f over every value in the request's codec (scalar or
// CRT slots), sequentially.
func (st *enclaveState) elementwise(req *nonlinearRequest, f func(vec []int64)) (vectorPlan, error) {
	codec, err := st.requestCodec(req)
	if err != nil {
		return vectorPlan{}, err
	}
	return vectorPlan{in: codec, out: codec, workers: 1, compute: func(vecs [][]int64) [][]int64 {
		for _, vec := range vecs {
			f(vec)
		}
		return vecs
	}}, nil
}

// applyActivation is the trusted non-linearity: dequantize, evaluate,
// requantize. kind values match nn.ActKind (1=Sigmoid .. 5=Square).
func applyActivation(kind int, vals []int64, inScale, outScale float64) {
	for i, v := range vals {
		x := float64(v) / inScale
		var y float64
		switch kind {
		case 2: // ReLU
			y = math.Max(0, x)
		case 3: // Tanh
			y = math.Tanh(x)
		case 4: // LeakyReLU
			if x < 0 {
				y = 0.01 * x
			} else {
				y = x
			}
		case 5: // Square
			y = x * x
		default: // Sigmoid
			y = 1 / (1 + math.Exp(-x))
		}
		vals[i] = int64(math.Round(y * outScale))
	}
}

// activation is the §IV-D plaintext computation for the activation layer:
// dequantize, evaluate the requested activation exactly, requantize. It
// carries §VI-C's point that SGX evaluates diverse activations (Sigmoid,
// ReLU, Tanh, ...) without approximation.
func (st *enclaveState) activation(req *nonlinearRequest, _ int) (vectorPlan, error) {
	return st.elementwise(req, func(vec []int64) {
		applyActivation(int(req.Act), vec, float64(req.InScale), float64(req.OutScale))
	})
}

// poolDivide implements the second half of the SGXDiv strategy (§VI-D):
// the window sums arrive already computed homomorphically outside; the
// enclave performs only the non-linear division.
func (st *enclaveState) poolDivide(req *nonlinearRequest, _ int) (vectorPlan, error) {
	if req.Divisor == 0 {
		return vectorPlan{}, fmt.Errorf("pool divide with zero divisor")
	}
	d := int64(req.Divisor)
	return st.elementwise(req, func(vec []int64) {
		for i, v := range vec {
			vec[i] = divRound(v, d)
		}
	})
}

// divRound divides with round-half-away-from-zero.
func divRound(v, d int64) int64 {
	if v >= 0 {
		return (v + d/2) / d
	}
	return -((-v + d/2) / d)
}

// poolFull implements the SGXPool strategy (§VI-D): the whole feature map
// enters the enclave, which computes mean pooling (sum and divide) in
// plaintext and re-encrypts the smaller map.
func (st *enclaveState) poolFull(req *nonlinearRequest, n int) (vectorPlan, error) {
	return st.poolWindows(req, n, false)
}

// poolMax is max pooling, which HE cannot express at all (§VI-D's closing
// observation: max-pooling is only possible via SGX in this framework).
func (st *enclaveState) poolMax(req *nonlinearRequest, n int) (vectorPlan, error) {
	return st.poolWindows(req, n, true)
}

// poolGeometry validates the feature map and window a pooling request
// describes.
func poolGeometry(req *nonlinearRequest) (c, h, w, k int, err error) {
	c, h, w, k = int(req.Channels), int(req.Height), int(req.Width), int(req.Window)
	if w <= 0 || h <= 0 || c <= 0 || k <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("pool geometry %dx%dx%d window %d invalid", c, h, w, k)
	}
	if h%k != 0 || w%k != 0 {
		return 0, 0, 0, 0, fmt.Errorf("pool window %d does not divide %dx%d", k, h, w)
	}
	return c, h, w, k, nil
}

func (st *enclaveState) poolWindows(req *nonlinearRequest, n int, usesMax bool) (vectorPlan, error) {
	c, h, w, k, err := poolGeometry(req)
	if err != nil {
		return vectorPlan{}, err
	}
	if n != c*h*w {
		return vectorPlan{}, fmt.Errorf("pool batch %d != %d*%d*%d", n, c, h, w)
	}
	codec, err := st.requestCodec(req)
	if err != nil {
		return vectorPlan{}, err
	}
	return vectorPlan{in: codec, out: codec, workers: 1, compute: func(vecs [][]int64) [][]int64 {
		width := 1
		if len(vecs) > 0 {
			width = len(vecs[0])
		}
		oh, ow := h/k, w/k
		out := make([][]int64, c*oh*ow)
		for i := range out {
			out[i] = make([]int64, width)
		}
		area := int64(k * k)
		for ch := 0; ch < c; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					dst := out[(ch*oh+oy)*ow+ox]
					for s := 0; s < width; s++ {
						if usesMax {
							best := vecs[(ch*h+oy*k)*w+ox*k][s]
							for ky := 0; ky < k; ky++ {
								for kx := 0; kx < k; kx++ {
									if v := vecs[(ch*h+oy*k+ky)*w+ox*k+kx][s]; v > best {
										best = v
									}
								}
							}
							dst[s] = best
						} else {
							var sum int64
							for ky := 0; ky < k; ky++ {
								for kx := 0; kx < k; kx++ {
									sum += vecs[(ch*h+oy*k+ky)*w+ox*k+kx][s]
								}
							}
							dst[s] = divRound(sum, area)
						}
					}
				}
			}
		}
		return out
	}}, nil
}

// refresh decrypts and immediately re-encrypts the full plaintext
// polynomial, removing accumulated noise without relinearization keys
// (§IV-E). Size-3 ciphertexts collapse back to size 2, so refresh also
// substitutes for relinearization. The measured pre-refresh budgets ride
// back in the reply envelope — the most direct observation of how close a
// ciphertext came to decryption failure before the refresh saved it.
func (st *enclaveState) refresh(ctx *sgx.Context, input []byte) ([]byte, error) {
	st.touchKeys(ctx)
	keys, err := st.loadKeys(ctx)
	if err != nil {
		return nil, err
	}
	cts, err := decodeCiphertextBatch(input, st.params)
	if err != nil {
		return nil, err
	}
	var meter budgetMeter
	out := make([]*he.Ciphertext, len(cts))
	for i, ct := range cts {
		pt, bits, err := keys.dec.DecryptWithBudget(ct)
		if err != nil {
			return nil, fmt.Errorf("refresh decrypt %d: %w", i, err)
		}
		meter.observe(bits)
		fresh, err := keys.enc.Encrypt(pt)
		if err != nil {
			return nil, fmt.Errorf("refresh re-encrypt %d: %w", i, err)
		}
		out[i] = fresh
		ctx.Touch(st.params.N * 8 * 4)
	}
	enc, err := encodeCiphertextBatch(out)
	if err != nil {
		return nil, err
	}
	return meter.wrap(enc), nil
}

// poolUnpack finishes the rotation-based packed pooling kernel: each input
// ciphertext is a slot-packed channel whose slot (k·oy)·stride + k·ox holds
// the homomorphically computed window sum for output (oy, ox), with
// stride = req.Lanes (the slot row stride of the packed layout — the
// original image width). The enclave decrypts with the rotation-aware
// packed codec, divides every window sum, and re-encrypts the pooled map as
// scalar ciphertexts in channel-major order, handing the pipeline back to
// the scalar flatten/FC tail.
func (st *enclaveState) poolUnpack(req *nonlinearRequest, n int) (vectorPlan, error) {
	codec, err := st.packedCodec()
	if err != nil {
		return vectorPlan{}, fmt.Errorf("pool unpack request: %w", err)
	}
	c, h, w, k, err := poolGeometry(req)
	if err != nil {
		return vectorPlan{}, fmt.Errorf("pool unpack: %w", err)
	}
	stride := int(req.Lanes)
	if stride < w {
		return vectorPlan{}, fmt.Errorf("pool unpack slot stride %d below map width %d", stride, w)
	}
	if req.Divisor == 0 {
		return vectorPlan{}, fmt.Errorf("pool unpack with zero divisor")
	}
	oh, ow := h/k, w/k
	// All window sums must live in row 0 of the packed layout: rotations
	// never mix the two rows, so the furthest output slot bounds the map.
	if maxSlot := (k*(oh-1))*stride + k*(ow-1); maxSlot >= codec.RowLen() {
		return vectorPlan{}, fmt.Errorf("pool unpack slot %d exceeds row length %d", maxSlot, codec.RowLen())
	}
	if n != c {
		return vectorPlan{}, fmt.Errorf("pool unpack batch %d != %d channels", n, c)
	}
	d := int64(req.Divisor)
	return vectorPlan{in: codec, out: st.scalar, workers: 1, compute: func(vecs [][]int64) [][]int64 {
		out := make([][]int64, c*oh*ow)
		for ch, slots := range vecs {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					out[(ch*oh+oy)*ow+ox] = []int64{divRound(slots[(k*oy)*stride+k*ox], d)}
				}
			}
		}
		return out
	}}, nil
}

// galoisKeys generates rotation key-switch keys inside the enclave for a
// planner-supplied step set: payload is [baseBits u32][count u32][steps
// i64...], reply the serialized he.GaloisKeys. Rotation keys are public
// material (encryptions of automorphed secret-key digits), so handing them
// to the untrusted engine leaks nothing the evaluation keys don't already.
func (st *enclaveState) galoisKeys(ctx *sgx.Context, input []byte) ([]byte, error) {
	st.touchKeys(ctx)
	r := bytes.NewReader(input)
	baseBits, err := readU32(r)
	if err != nil {
		return nil, fmt.Errorf("galois keys base bits: %w", err)
	}
	count, err := readU32(r)
	if err != nil {
		return nil, fmt.Errorf("galois keys step count: %w", err)
	}
	if count == 0 || int(count) > r.Len()/8 {
		return nil, fmt.Errorf("galois keys step count %d exceeds payload", count)
	}
	steps := make([]int, count)
	for i := range steps {
		v, err := readU64(r)
		if err != nil {
			return nil, fmt.Errorf("galois keys step %d: %w", i, err)
		}
		steps[i] = int(int64(v))
	}
	sk, err := he.UnmarshalSecretKey(st.skBytes)
	if err != nil {
		return nil, fmt.Errorf("loading secret key: %w", err)
	}
	kg, err := he.NewKeyGenerator(st.params, st.src)
	if err != nil {
		return nil, err
	}
	gk, err := kg.GenGaloisKeys(sk, steps, int(baseBits))
	if err != nil {
		return nil, err
	}
	out, err := he.MarshalGaloisKeys(gk)
	if err != nil {
		return nil, err
	}
	ctx.Touch(len(out))
	return out, nil
}

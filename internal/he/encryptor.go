package he

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"hesgx/internal/ring"
)

// Encryptor encrypts plaintexts under an FV public key. Not safe for
// concurrent use (it owns a sampler); create one per goroutine.
type Encryptor struct {
	params  Parameters
	pk      *PublicKey
	sampler *ring.Sampler
	// p0NTT/p1NTT cache the public key in the evaluation domain, saving
	// two transforms per encryption.
	p0NTT ring.Poly
	p1NTT ring.Poly
}

// NewEncryptor builds an encryptor drawing randomness from src.
func NewEncryptor(pk *PublicKey, src ring.Source) (*Encryptor, error) {
	if pk == nil || !pk.Params.Valid() {
		return nil, fmt.Errorf("he: nil or invalid public key")
	}
	r := pk.Params.Ring()
	e := &Encryptor{
		params:  pk.Params,
		pk:      pk,
		sampler: ring.NewSampler(r, src),
		p0NTT:   pk.P0.Copy(),
		p1NTT:   pk.P1.Copy(),
	}
	r.NTT(e.p0NTT)
	r.NTT(e.p1NTT)
	return e, nil
}

// Encrypt computes ct = ([p0 u + e1 + Δm]_q, [p1 u + e2]_q), the Encrypt
// algorithm from §II-B.
func (e *Encryptor) Encrypt(pt *Plaintext) (*Ciphertext, error) {
	if err := pt.Validate(); err != nil {
		return nil, fmt.Errorf("he: encrypt: %w", err)
	}
	r := e.params.Ring()
	u := r.NewPoly()
	e1 := r.NewPoly()
	e2 := r.NewPoly()
	e.sampler.Ternary(u)
	e.sampler.Gaussian(e1)
	e.sampler.Gaussian(e2)

	ct := NewCiphertext(e.params, 2)
	// Transform u once; both products use the cached NTT-domain key.
	uNTT := u
	r.NTT(uNTT)
	// c0 = p0*u + e1 + delta*m
	r.MulCoeffs(e.p0NTT, uNTT, ct.Polys[0])
	r.INTT(ct.Polys[0])
	r.Add(ct.Polys[0], e1, ct.Polys[0])
	dm := r.NewPoly()
	r.MulScalar(pt.Poly, e.params.Delta(), dm)
	r.Add(ct.Polys[0], dm, ct.Polys[0])
	// c1 = p1*u + e2
	r.MulCoeffs(e.p1NTT, uNTT, ct.Polys[1])
	r.INTT(ct.Polys[1])
	r.Add(ct.Polys[1], e2, ct.Polys[1])
	return ct, nil
}

// EncryptScalar encrypts a single integer value (mod T) placed in the
// constant coefficient. Most callers should use an encoder instead.
func (e *Encryptor) EncryptScalar(v uint64) (*Ciphertext, error) {
	pt := NewPlaintext(e.params)
	pt.Poly.Coeffs[0] = v % e.params.T
	return e.Encrypt(pt)
}

// EncryptZero returns a fresh encryption of zero, used by the enclave's
// re-encryption path and by tests.
func (e *Encryptor) EncryptZero() (*Ciphertext, error) {
	return e.Encrypt(NewPlaintext(e.params))
}

// SymmetricEncryptor encrypts plaintexts directly under the FV secret key,
// producing seed-compressible ciphertexts: ct = (-(a·s + e) + Δm, a) where
// the uniform a is expanded from a 32-byte ChaCha8 seed, so only (c0, seed)
// needs to travel. Clients that already hold s — which ours do, the enclave
// delivers it in the attestation user-data field (§IV-B) — use this for
// uploads at roughly half the bytes of public-key encryptions, with the
// same noise term e. Not safe for concurrent use (it owns a sampler).
type SymmetricEncryptor struct {
	params  Parameters
	sk      *SecretKey
	sampler *ring.Sampler
	src     ring.Source
}

// NewSymmetricEncryptor builds a secret-key encryptor drawing error terms
// and expansion seeds from src. A nil src falls back to crypto randomness —
// the safe default for anything but reproducible tests.
func NewSymmetricEncryptor(sk *SecretKey, src ring.Source) (*SymmetricEncryptor, error) {
	if sk == nil || !sk.Params.Valid() {
		return nil, fmt.Errorf("he: nil or invalid secret key")
	}
	if src == nil {
		src = ring.NewCryptoSource()
	}
	if len(sk.sNTT.Coeffs) == 0 {
		sk.precompute()
	}
	return &SymmetricEncryptor{
		params:  sk.Params,
		sk:      sk,
		sampler: ring.NewSampler(sk.Params.Ring(), src),
		src:     src,
	}, nil
}

// EncryptSeeded computes the symmetric encryption ct = (-(a·s + e) + Δm, a)
// and returns it in seed-compressed form: c0 plus the seed that a expands
// from. Decryption sees c0 + a·s = Δm - e, i.e. exactly the noise profile of
// the Encrypt algorithm's error term — seeding costs no noise budget.
func (e *SymmetricEncryptor) EncryptSeeded(pt *Plaintext) (*SeededCiphertext, error) {
	r := e.params.Ring()
	a := r.GetPoly()
	defer r.PutPoly(a)
	return e.encryptInto(pt, a)
}

// Encrypt is EncryptSeeded followed by expansion — a full two-polynomial
// symmetric ciphertext for callers that do not care about wire size. The
// uniform a expanded while encrypting becomes c1 directly, so the output
// equals EncryptSeeded(pt).Expand() without expanding the seed twice.
func (e *SymmetricEncryptor) Encrypt(pt *Plaintext) (*Ciphertext, error) {
	a := e.params.Ring().NewPoly()
	sc, err := e.encryptInto(pt, a)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{Params: e.params, Polys: []ring.Poly{sc.C0, a}, Form: CoeffForm}, nil
}

// encryptInto draws a fresh seed, expands it into a and returns the seeded
// encryption of pt under that a.
func (e *SymmetricEncryptor) encryptInto(pt *Plaintext, a ring.Poly) (*SeededCiphertext, error) {
	if err := pt.Validate(); err != nil {
		return nil, fmt.Errorf("he: encrypt seeded: %w", err)
	}
	sc := &SeededCiphertext{Params: e.params}
	for i := 0; i < SeedSize; i += 8 {
		binary.LittleEndian.PutUint64(sc.Seed[i:], e.src.Uint64())
	}
	r := e.params.Ring()
	r.UniformFromSeed(sc.Seed, a)

	// c0 = -(a*s + e) + delta*m, with a*s via the cached NTT-domain secret.
	c0 := r.NewPoly()
	r.MulNTTLazy(a, e.sk.sNTT, c0)
	errPoly := r.GetPoly()
	defer r.PutPoly(errPoly)
	e.sampler.Gaussian(errPoly)
	r.Add(c0, errPoly, c0)
	r.Neg(c0, c0)
	r.MulScalarAdd(pt.Poly, e.params.Delta(), c0)
	sc.C0 = c0
	return sc, nil
}

// Decryptor decrypts FV ciphertexts with a secret key. Safe for concurrent
// use: decryption is deterministic and allocates its own scratch space.
type Decryptor struct {
	params Parameters
	sk     *SecretKey
}

// NewDecryptor builds a decryptor for sk.
func NewDecryptor(sk *SecretKey) (*Decryptor, error) {
	if sk == nil || !sk.Params.Valid() {
		return nil, fmt.Errorf("he: nil or invalid secret key")
	}
	if len(sk.sNTT.Coeffs) == 0 {
		sk.precompute()
	}
	return &Decryptor{params: sk.Params, sk: sk}, nil
}

// phase computes [c0 + c1 s (+ c2 s^2)]_q in coefficient domain.
func (d *Decryptor) phase(ct *Ciphertext) ring.Poly {
	r := d.params.Ring()
	acc := ct.Polys[1].Copy()
	r.NTT(acc)
	r.MulCoeffs(acc, d.sk.sNTT, acc)
	if ct.Size() == 3 {
		c2 := ct.Polys[2].Copy()
		r.NTT(c2)
		r.MulCoeffs(c2, d.sk.s2NTT, c2)
		r.Add(acc, c2, acc)
	}
	r.INTT(acc)
	r.Add(acc, ct.Polys[0], acc)
	return acc
}

// Decrypt recovers the plaintext: m = round(t*[c0+c1 s]_q / q) mod t,
// the Decrypt algorithm from §II-B.
func (d *Decryptor) Decrypt(ct *Ciphertext) (*Plaintext, error) {
	if err := ct.Validate(); err != nil {
		return nil, fmt.Errorf("he: decrypt: %w", err)
	}
	if ct.Form != CoeffForm {
		return nil, fmt.Errorf("he: decrypt: ciphertext is %v form; call ToCoeff first", ct.Form)
	}
	if !ct.Params.Equal(d.params) {
		return nil, fmt.Errorf("he: decrypt: ciphertext parameters mismatch")
	}
	w := d.phase(ct)
	pt := NewPlaintext(d.params)
	t := d.params.T
	q := d.params.Q
	for i, c := range w.Coeffs {
		// round(t*c/q) computed exactly; c < q < 2^58, t < 2^58.
		v := scaleRound(c, t, q)
		pt.Poly.Coeffs[i] = v % t
	}
	return pt, nil
}

// scaleRound returns round(c*t/q) for c < q using 128-bit exact arithmetic.
func scaleRound(c, t, q uint64) uint64 {
	hi, lo := bits.Mul64(c, t)
	lo, carry := bits.Add64(lo, q/2, 0)
	hi += carry
	// hi < q because c < q and t < q, so Div64's precondition holds.
	quo, _ := bits.Div64(hi, lo, q)
	return quo
}

// NoiseBudget returns the remaining invariant noise budget of ct in bits:
// log2(q/(2t)) - log2(|v|) where v is the centered decryption noise. A
// non-positive budget means decryption is no longer guaranteed correct.
// Requires the secret key, so only key owners (or the enclave) can call it.
func (d *Decryptor) NoiseBudget(ct *Ciphertext) (float64, error) {
	_, budget, err := d.DecryptWithBudget(ct)
	return budget, err
}

// DecryptWithBudget decrypts ct and simultaneously measures its remaining
// invariant noise budget from the same phase computation — the enclave's
// refresh path uses this so noise telemetry costs no extra NTTs beyond the
// decryption it already performs (§IV-E).
func (d *Decryptor) DecryptWithBudget(ct *Ciphertext) (*Plaintext, float64, error) {
	if err := ct.Validate(); err != nil {
		return nil, 0, fmt.Errorf("he: decrypt: %w", err)
	}
	if ct.Form != CoeffForm {
		return nil, 0, fmt.Errorf("he: decrypt: ciphertext is %v form; call ToCoeff first", ct.Form)
	}
	if !ct.Params.Equal(d.params) {
		return nil, 0, fmt.Errorf("he: decrypt: ciphertext parameters mismatch")
	}
	r := d.params.Ring()
	w := d.phase(ct)
	pt := NewPlaintext(d.params)
	t := d.params.T
	q := d.params.Q
	delta := d.params.Delta()
	maxAbs := int64(0)
	for i, c := range w.Coeffs {
		m := scaleRound(c, t, q) % t
		pt.Poly.Coeffs[i] = m
		// v = c - delta*m (centered) is the Δ-domain noise of this
		// coefficient; the budget is set by the worst one.
		vm := r.Mod.Sub(c, r.Mod.Mul(delta, m))
		v := r.Mod.Centered(vm)
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	budget := d.params.MaxNoiseBudget() - math.Log2(float64(maxAbs))
	return pt, budget, nil
}

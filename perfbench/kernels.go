package main

import (
	"fmt"
	"time"

	"hesgx/internal/core"
	"hesgx/internal/encoding"
	"hesgx/internal/he"
	"hesgx/internal/ring"
)

// Kernel phase: the ring, he and encoding primitives the layers are built
// from, timed through their public functions at the serving tier's
// parameters (n=2048, core.DefaultSIMDParameters). It runs after the
// measured phases, on its own parameter instance, so it moves none of the
// serving stack's counters.

// kernelBudget bounds the time spent on one primitive; kernelMaxReps and
// kernelMinReps bound its repetitions.
const (
	kernelBudget  = 150 * time.Millisecond
	kernelMaxReps = 400
	kernelMinReps = 5
)

// kernels holds the median time of one call of each primitive in
// microseconds and the number of calls it was taken over, keyed by metric
// name, and the serialized size of a fresh ciphertext.
type kernels struct {
	us        map[string]float64
	reps      map[string]int
	ctWireLen int
}

// timeOp calls f repeatedly and returns the median call time in
// microseconds and the number of calls.
func timeOp(f func() error) (float64, int, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < kernelMinReps || (len(ds) < kernelMaxReps && time.Since(start) < kernelBudget) {
		t := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		ds = append(ds, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(ds), len(ds), nil
}

func runKernels(seed uint64) (*kernels, error) {
	params, err := core.DefaultSIMDParameters()
	if err != nil {
		return nil, err
	}
	r := params.Ring()
	src := ring.NewSeededSource(seed)
	kg, err := he.NewKeyGenerator(params, src)
	if err != nil {
		return nil, err
	}
	sk, pk := kg.GenKeyPair()
	enc, err := he.NewEncryptor(pk, src)
	if err != nil {
		return nil, err
	}
	senc, err := he.NewSymmetricEncryptor(sk, src)
	if err != nil {
		return nil, err
	}
	dec, err := he.NewDecryptor(sk)
	if err != nil {
		return nil, err
	}
	ev, err := he.NewEvaluator(params)
	if err != nil {
		return nil, err
	}
	be, err := encoding.NewBatchEncoder(params)
	if err != nil {
		return nil, err
	}
	// The packed-28 rotation set: a 5×5 conv window at slot stride 28.
	steps := convTapSteps(5, 28)
	gk, err := kg.GenGaloisKeys(sk, steps, 0)
	if err != nil {
		return nil, err
	}
	rnd := newRand(seed, 1<<16)
	vals := make([]int64, be.SlotCount())
	for i := range vals {
		vals[i] = rnd.Int64N(1 << 16)
	}
	pt, err := be.Encode(vals)
	if err != nil {
		return nil, err
	}
	ct, err := enc.Encrypt(pt)
	if err != nil {
		return nil, err
	}
	sampler := ring.NewSampler(r, src)
	p := r.NewPoly()
	sampler.Uniform(p)
	var seed32 [32]byte
	for i := range seed32 {
		seed32[i] = byte(rnd.Uint32())
	}

	ops := []struct {
		name string
		f    func() error
	}{
		{"ring.ntt_fwd_us", func() error { r.NTT(p); return nil }},
		{"ring.ntt_inv_us", func() error { r.INTT(p); return nil }},
		{"ring.gaussian_poly_us", func() error { sampler.Gaussian(p); return nil }},
		{"ring.ternary_poly_us", func() error { sampler.Ternary(p); return nil }},
		{"ring.uniform_seed_poly_us", func() error { r.UniformFromSeed(seed32, p); return nil }},
		{"he.encrypt_pk_us", func() error { _, err := enc.Encrypt(pt); return err }},
		{"he.encrypt_sk_us", func() error { _, err := senc.Encrypt(pt); return err }},
		{"he.decrypt_us", func() error { _, err := dec.Decrypt(ct); return err }},
		{"he.rotate_hoisted_us", func() error { _, err := ev.RotateHoisted(ct, steps, gk); return err }},
		{"encoding.batch_encode_us", func() error { _, err := be.Encode(vals); return err }},
		{"encoding.batch_decode_us", func() error { _, err := be.Decode(pt); return err }},
	}
	k := &kernels{us: map[string]float64{}, reps: map[string]int{}, ctWireLen: ct.WireSize()}
	for _, op := range ops {
		v, reps, err := timeOp(op.f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op.name, err)
		}
		k.us[op.name], k.reps[op.name] = v, reps
	}
	return k, nil
}

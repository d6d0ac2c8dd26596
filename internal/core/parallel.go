package core

import (
	"fmt"
	"runtime"
	"sync"

	"hesgx/internal/he"
)

// Parallel execution of the homomorphic linear layers. The FV evaluator is
// safe for concurrent use and every output position of a convolution (and
// of a fully connected layer, planned as a 1×1 convolution) is independent, so the engine shards output
// positions across a worker pool. Enclave calls stay batched and
// sequential: boundary crossings are the expensive resource the framework
// already amortizes (§IV-D).

// Workers in Config selects the parallelism of linear layers: 0 or 1 means
// sequential (the default, and what the timing experiments use so figures
// stay comparable to the paper's single-threaded SEAL runs).

// parallelFor runs fn(i) for i in [0, n) on up to workers goroutines and
// returns the first error.
func parallelFor(n, workers int, fn func(i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next := make(chan int)
	// failed closes once on the first error so the dispatcher stops feeding
	// indices instead of draining the full range through the workers — a
	// failed 784-output layer should not run its remaining outputs. Once
	// failed is observed closed, no further fn call begins: the dispatcher
	// re-checks it non-blockingly before every send (a blocking two-way
	// select alone picks randomly when a worker is simultaneously ready,
	// leaking extra indices), and workers drain already-queued indices
	// without running them.
	failed := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				select {
				case <-failed:
					continue // a prior index failed; drain without running
				default:
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() {
						firstErr = err
						close(failed)
					})
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case <-failed:
			break dispatch
		default:
		}
		select {
		case next <- i:
		case <-failed:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return firstErr
}

// effectiveWorkers resolves the configured worker count.
func (e *HybridEngine) effectiveWorkers() int {
	if e.cfg.Workers < 0 {
		return runtime.NumCPU()
	}
	return e.cfg.Workers
}

// toNTTInputs hoists the layer inputs into evaluation form, sharded across
// workers. Inputs are copied first: they may be client-owned or shared with
// other in-flight steps, and conversion is in place. The copies are
// rebound to the engine's parameter instance so their transforms hit the
// engine ring's scratch pools and NTT counters — client-decoded
// ciphertexts carry an equal-but-distinct ring.
func (e *HybridEngine) toNTTInputs(in []*he.Ciphertext, workers int) []*he.Ciphertext {
	out := make([]*he.Ciphertext, len(in))
	_ = parallelFor(len(in), workers, func(i int) error {
		ct := in[i].Copy()
		ct.Params = e.params
		ct.ToNTT()
		out[i] = ct
		return nil
	})
	return out
}

// convOutput computes one output position of a convolution step on the
// scalar fast path: constant-coefficient multiply-accumulates in coefficient
// form, skipping zero weights.
func (e *HybridEngine) convOutput(s *planStep, in []*he.Ciphertext, h, w, o, oy, ox int) (*he.Ciphertext, error) {
	q := s.conv
	var acc *he.Ciphertext
	var err error
	for i := 0; i < q.InC; i++ {
		for ky := 0; ky < q.K; ky++ {
			iy := oy*q.Stride + ky
			for kx := 0; kx < q.K; kx++ {
				wv := q.W[((o*q.InC+i)*q.K+ky)*q.K+kx]
				if wv == 0 {
					continue
				}
				ct := in[(i*h+iy)*w+ox*q.Stride+kx]
				if acc == nil {
					acc, err = e.eval.MulScalar(ct, e.scalar.EncodeValue(wv))
				} else {
					err = e.eval.MulScalarAddInto(acc, ct, e.scalar.EncodeValue(wv))
				}
				if err != nil {
					return nil, err
				}
			}
		}
	}
	if acc == nil {
		if acc, err = e.eval.MulScalar(in[0], 0); err != nil {
			return nil, err
		}
	}
	if acc, err = e.eval.AddPlain(acc, s.convBias[o]); err != nil {
		return nil, err
	}
	return acc, nil
}

// convOutputNTT computes one output position of a convolution step in
// evaluation form: every weight product is a fused pointwise
// multiply-accumulate against the NTT-resident inputs, with a single
// inverse transform on the finished accumulator. It is the TruePlainMul
// kernel, bit-identical to summing per-product MulPlainOperand results (the
// inverse NTT is linear mod q, so transforming the sum equals summing the
// transforms); the tests keep that per-product sum as the oracle.
func (e *HybridEngine) convOutputNTT(s *planStep, nttIn []*he.Ciphertext, h, w, o, oy, ox int) (*he.Ciphertext, error) {
	q := s.conv
	var acc *he.Ciphertext
	for i := 0; i < q.InC; i++ {
		for ky := 0; ky < q.K; ky++ {
			iy := oy*q.Stride + ky
			for kx := 0; kx < q.K; kx++ {
				wIdx := ((o*q.InC+i)*q.K+ky)*q.K + kx
				ct := nttIn[(i*h+iy)*w+ox*q.Stride+kx]
				if acc == nil {
					// A zero accumulator is domain-invariant, so it can be
					// born directly in evaluation form.
					acc = he.NewCiphertext(e.params, ct.Size())
					acc.Form = he.NTTForm
				}
				if err := e.eval.MulPlainOperandAddInto(acc, ct, s.convOps[wIdx]); err != nil {
					return nil, err
				}
			}
		}
	}
	if acc == nil {
		acc = he.NewCiphertext(e.params, nttIn[0].Size())
	} else {
		acc.ToCoeff()
	}
	if err := e.eval.AddPlainInto(acc, s.convBias[o]); err != nil {
		return nil, err
	}
	return acc, nil
}

// runConvParallel shards convolution output positions across workers. It
// also runs fully connected steps, which the planner expresses as 1×1
// convolutions over a 1×1 map (see quantizeLinear).
func (e *HybridEngine) runConvParallel(s *planStep, in []*he.Ciphertext, c, h, w, workers int) ([]*he.Ciphertext, int, int, int, error) {
	q := s.conv
	if c != q.InC || len(in) != c*h*w {
		return nil, 0, 0, 0, fmt.Errorf("conv input %d cts (%dx%dx%d), want inC=%d", len(in), c, h, w, q.InC)
	}
	oh, ow := q.OutSize(h), q.OutSize(w)
	out := make([]*he.Ciphertext, q.OutC*oh*ow)
	resident := e.cfg.TruePlainMul
	var nttIn []*he.Ciphertext
	if resident {
		nttIn = e.toNTTInputs(in, workers)
	}
	err := parallelFor(len(out), workers, func(idx int) error {
		o := idx / (oh * ow)
		rest := idx % (oh * ow)
		oy, ox := rest/ow, rest%ow
		var ct *he.Ciphertext
		var err error
		if resident {
			ct, err = e.convOutputNTT(s, nttIn, h, w, o, oy, ox)
		} else {
			ct, err = e.convOutput(s, in, h, w, o, oy, ox)
		}
		if err != nil {
			return err
		}
		out[idx] = ct
		return nil
	})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return out, q.OutC, oh, ow, nil
}

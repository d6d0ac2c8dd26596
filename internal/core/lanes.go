package core

import "fmt"

// Lane packing (§VIII applied to serving): under concurrent load the edge
// server merges same-model requests from different clients into the CRT
// slot lanes of shared ciphertexts, runs one engine pass over the packed
// image, and splits per-lane logits back out on reply. Every client holds
// the same provisioned FV keypair (§IV-A delivers one enclave-generated key
// to all users), so repacking is possible — but only inside the enclave,
// which alone holds the secret key. The two ECALL plans below are that
// trusted repacking: both decrypt, transpose between scalar and slot
// layouts, and re-encrypt fresh (through the vectorECall envelope), so a
// pack doubles as a noise refresh and the engine's static noise
// accountant applies to the packed pass unchanged.

// lanePack merges req.Lanes scalar ciphertext groups, laid out lane-major
// (lane k's P ciphertexts at offset k*P), into P slot-packed fresh
// ciphertexts whose CRT slot k carries lane k's value. The measured noise
// budgets of every decrypted input ride back in the reply envelope — the
// per-lane attribution point for ciphertexts entering a packed pass.
func (st *enclaveState) lanePack(req *nonlinearRequest, n int) (vectorPlan, error) {
	codec, err := st.slotCodec()
	if err != nil {
		return vectorPlan{}, fmt.Errorf("lane pack: %w", err)
	}
	k := int(req.Lanes)
	if k < 2 || k > codec.SlotCount() {
		return vectorPlan{}, fmt.Errorf("lane pack: %d lanes outside [2, %d]", k, codec.SlotCount())
	}
	if n == 0 || n%k != 0 {
		return vectorPlan{}, fmt.Errorf("lane pack: batch of %d does not split into %d lanes", n, k)
	}
	p := n / k
	return vectorPlan{in: st.scalar, out: codec, workers: ecallWorkers(n), compute: func(vals [][]int64) [][]int64 {
		// Transpose position by position: slot k of packed ciphertext pos
		// is lane k's value at pos.
		out := make([][]int64, p)
		for pos := range out {
			out[pos] = make([]int64, k)
			for lane := range out[pos] {
				out[pos][lane] = vals[lane*p+pos][0]
			}
		}
		return out
	}}, nil
}

// laneDemux splits P slot-packed ciphertexts back into req.Lanes scalar
// groups, lane-major: output k*P+pos is lane k's value at pos, re-encrypted
// as a fresh scalar ciphertext. Keeping the demux inside the enclave means
// no client's reply ever carries another lane's logits. The measured
// budgets of the packed ciphertexts ride back in the envelope — the noise
// the shared pass accumulated, attributed to every lane it served.
func (st *enclaveState) laneDemux(req *nonlinearRequest, p int) (vectorPlan, error) {
	codec, err := st.slotCodec()
	if err != nil {
		return vectorPlan{}, fmt.Errorf("lane demux: %w", err)
	}
	k := int(req.Lanes)
	if k < 2 || k > codec.SlotCount() {
		return vectorPlan{}, fmt.Errorf("lane demux: %d lanes outside [2, %d]", k, codec.SlotCount())
	}
	if p == 0 {
		return vectorPlan{}, fmt.Errorf("lane demux: empty batch")
	}
	return vectorPlan{in: codec, out: st.scalar, workers: ecallWorkers(k * p), compute: func(slots [][]int64) [][]int64 {
		out := make([][]int64, k*p)
		for pos, vec := range slots {
			for lane := 0; lane < k; lane++ {
				out[lane*p+pos] = []int64{vec[lane]}
			}
		}
		return out
	}}, nil
}

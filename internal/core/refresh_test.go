package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/ring"
)

// atLeastTwoProcs raises GOMAXPROCS to at least 2 for the test, so vector
// ECALLs over ≥32 ciphertexts fan out over several workers even under
// -cpu 1, and restores it afterwards.
func atLeastTwoProcs(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(max(2, prev))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	if w := ecallWorkers(64); w < 2 {
		t.Fatalf("ecallWorkers(64) = %d under GOMAXPROCS %d; the test needs ≥2 workers", w, runtime.GOMAXPROCS(0))
	}
}

// scalarBatch encrypts n small scalar values under pk from a seeded source.
func scalarBatch(t *testing.T, params he.Parameters, pk *he.PublicKey, n int) []*he.Ciphertext {
	t.Helper()
	enc, err := he.NewEncryptor(pk, ring.NewSeededSource(78))
	if err != nil {
		t.Fatal(err)
	}
	cts := make([]*he.Ciphertext, n)
	for i := range cts {
		v := int64(i*37%1024) - 512
		if cts[i], err = enc.EncryptScalar(uint64((v + int64(params.T)) % int64(params.T))); err != nil {
			t.Fatal(err)
		}
	}
	return cts
}

// refreshCalls are the ECALLs the refresh tests drive over a scalar batch:
// one vectorECall (activation) and the bare-batch refresh.
func refreshCalls(t *testing.T, cts []*he.Ciphertext) map[string][]byte {
	t.Helper()
	act, err := NonlinearOp{Kind: OpActivation, Act: int(nn.Sigmoid), InScale: 256, OutScale: 256}.request(nil).marshalWithBatch(cts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := encodeCiphertextBatch(cts)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{ECallActivation: act, ECallRefresh: ref}
}

// replyCiphertexts decodes the re-encrypted batch of an ECALL reply.
func replyCiphertexts(t *testing.T, params he.Parameters, reply []byte) []*he.Ciphertext {
	t.Helper()
	rep, err := unmarshalNonlinearReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	cts, err := decodeCiphertextBatch(rep.CTs, params)
	if err != nil {
		t.Fatal(err)
	}
	return cts
}

// TestRefreshStreamsReproducible: every worker of a re-encrypting ECALL
// keys its own ChaCha8 stream from the enclave source, in worker order,
// before the fan-out. Two enclaves on the same seeded key source must
// therefore answer the same request byte for byte however the workers
// interleave, and no two workers may share a stream: every fresh c1 in a
// reply is distinct.
func TestRefreshStreamsReproducible(t *testing.T) {
	atLeastTwoProcs(t)
	params := testParams(t)
	a, b := testService(t, params), testService(t, params)
	cts := scalarBatch(t, params, a.PublicKey(), 64)
	for name, payload := range refreshCalls(t, cts) {
		ra, err := a.Enclave().ECall(name, payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rb, err := b.Enclave().ECall(name, payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(ra, rb) {
			t.Fatalf("%s: replies of two enclaves on one seeded source differ", name)
		}
		seen := make(map[string]int)
		for i, ct := range replyCiphertexts(t, params, ra) {
			key := fmt.Sprint(ct.Polys[1].Coeffs)
			if j, dup := seen[key]; dup {
				t.Fatalf("%s: ciphertexts %d and %d share c1: two workers drew one stream", name, j, i)
			}
			seen[key] = i
		}
	}
}

// TestRefreshNoiseWithinFreshBound: the enclave re-encrypts under its
// secret key, whose single error term the public-key FreshNoiseBound
// covers with room to spare. Every ciphertext leaving a re-encrypting
// ECALL, decrypted with the enclave's own (seeded, so re-derivable) key,
// must measure at least the predicted fresh budget.
func TestRefreshNoiseWithinFreshBound(t *testing.T) {
	params := testParams(t)
	svc := testService(t, params)
	kg, err := he.NewKeyGenerator(params, ring.NewSeededSource(testKeySeed))
	if err != nil {
		t.Fatal(err)
	}
	sk, pk := kg.GenKeyPair()
	if !pk.P0.Equal(svc.PublicKey().P0) || !pk.P1.Equal(svc.PublicKey().P1) {
		t.Fatal("re-derived key pair is not the enclave's")
	}
	dec, err := he.NewDecryptor(sk)
	if err != nil {
		t.Fatal(err)
	}
	want := params.FreshNoiseBound().BudgetBits()
	calls := refreshCalls(t, scalarBatch(t, params, pk, 48))
	div, err := NonlinearOp{Kind: OpPoolDivide, Divisor: 4}.request(nil).marshalWithBatch(scalarBatch(t, params, pk, 48))
	if err != nil {
		t.Fatal(err)
	}
	calls[ECallPoolDivide] = div
	for name, payload := range calls {
		reply, err := svc.Enclave().ECall(name, payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, ct := range replyCiphertexts(t, params, reply) {
			got, err := dec.NoiseBudget(ct)
			if err != nil {
				t.Fatal(err)
			}
			if got < want {
				t.Fatalf("%s: ciphertext %d measures %.2f bits, below the fresh bound %.2f", name, i, got, want)
			}
		}
	}
}

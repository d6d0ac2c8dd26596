package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"testing"
)

// Statistical sampler tests in the style of lattigo's testGaussianSampler
// and testTernarySampler. Every test draws from fixed seeds, so a pass or a
// fail is reproducible; the thresholds sit at p ≈ 0.001 of the ideal
// distribution, so a correct sampler fails none of the fixed seeds and a
// biased one (a wrong CDT, a lost sign bit, a modulo bias) fails all.

// sampleStatsPolys is the number of test-ring polynomials each statistical
// test draws: 1024 × 64 = 65,536 coefficients.
const sampleStatsPolys = 1024

// drawCentered draws sampleStatsPolys polynomials with fill and returns
// their centered coefficients.
func drawCentered(r *Ring, fill func(Poly)) []int64 {
	out := make([]int64, 0, sampleStatsPolys*r.N)
	p := r.NewPoly()
	for i := 0; i < sampleStatsPolys; i++ {
		fill(p)
		for _, c := range p.Coeffs {
			out = append(out, r.Mod.Centered(c))
		}
	}
	return out
}

// chiSquare returns Σ (obs − exp)² / exp for expected counts exp.
func chiSquare(obs []int, exp []float64) float64 {
	var x float64
	for i, o := range obs {
		d := float64(o) - exp[i]
		x += d * d / exp[i]
	}
	return x
}

func TestSamplerGaussianMoments(t *testing.T) {
	r := testRing(t)
	for _, seed := range []uint64{11, 12, 13} {
		s := NewSampler(r, NewSeededSource(seed))
		vals := drawCentered(r, s.Gaussian)
		n := float64(len(vals))
		bound := int64(GaussianBound())
		var sum, sumSq float64
		var pos, neg int
		for _, v := range vals {
			if v > bound || v < -bound {
				t.Fatalf("seed %d: sample %d beyond GaussianBound %d", seed, v, bound)
			}
			sum += float64(v)
			sumSq += float64(v) * float64(v)
			switch {
			case v > 0:
				pos++
			case v < 0:
				neg++
			}
		}
		sigma2 := DefaultSigma * DefaultSigma
		mean := sum / n
		// Four standard errors of the mean.
		if lim := 4 * DefaultSigma / math.Sqrt(n); math.Abs(mean) > lim {
			t.Errorf("seed %d: mean %.4f outside ±%.4f", seed, mean, lim)
		}
		variance := sumSq/n - mean*mean
		if math.Abs(variance-sigma2) > 0.1*sigma2 {
			t.Errorf("seed %d: variance %.3f not within 10%% of σ² = %.3f", seed, variance, sigma2)
		}
		// Signs are fair coin flips: |pos − neg| within four standard
		// deviations of a symmetric walk over pos+neg steps.
		if d, lim := math.Abs(float64(pos-neg)), 4*math.Sqrt(float64(pos+neg)); d > lim {
			t.Errorf("seed %d: %d positive vs %d negative samples (|Δ| %.0f > %.0f)", seed, pos, neg, d, lim)
		}
	}
}

func TestSamplerTernaryChiSquare(t *testing.T) {
	r := testRing(t)
	for _, seed := range []uint64{21, 22, 23} {
		s := NewSampler(r, NewSeededSource(seed))
		obs := make([]int, 3)
		for _, v := range drawCentered(r, s.Ternary) {
			if v < -1 || v > 1 {
				t.Fatalf("seed %d: ternary value %d", seed, v)
			}
			obs[v+1]++
		}
		n := float64(sampleStatsPolys * r.N)
		exp := []float64{n / 3, n / 3, n / 3}
		// χ² with 2 degrees of freedom: P(χ² > 13.82) = 0.001.
		if x := chiSquare(obs, exp); x > 13.82 {
			t.Errorf("seed %d: ternary counts %v give χ² = %.2f > 13.82", seed, obs, x)
		}
	}
}

// uniformChiSquare buckets every coefficient of sampleStatsPolys
// polynomials filled by fill into 64 equal ranges of [0, q) and returns χ².
func uniformChiSquare(t *testing.T, r *Ring, fill func(Poly)) float64 {
	t.Helper()
	const buckets = 64
	q := r.Mod.Q
	obs := make([]int, buckets)
	p := r.NewPoly()
	for i := 0; i < sampleStatsPolys; i++ {
		fill(p)
		for _, c := range p.Coeffs {
			if c >= q {
				t.Fatalf("uniform coefficient %d not below q = %d", c, q)
			}
			hi, lo := bits.Mul64(c, buckets)
			b, _ := bits.Div64(hi, lo, q)
			obs[b]++
		}
	}
	exp := make([]float64, buckets)
	for i := range exp {
		exp[i] = float64(sampleStatsPolys*r.N) / buckets
	}
	return chiSquare(obs, exp)
}

// chiSquare63 is the p = 0.001 critical value of χ² with 63 degrees of
// freedom (64 buckets).
const chiSquare63 = 103.44

func TestSamplerUniformChiSquare(t *testing.T) {
	r := testRing(t)
	for _, seed := range []uint64{31, 32, 33} {
		s := NewSampler(r, NewSeededSource(seed))
		if x := uniformChiSquare(t, r, s.Uniform); x > chiSquare63 {
			t.Errorf("seed %d: Uniform χ² = %.2f > %.2f", seed, x, chiSquare63)
		}
	}
	// The seeded expansion of v2 uploads walks the same rejection sampler
	// over a ChaCha8 stream; it must be just as uniform.
	next := uint64(0)
	seeded := func(p Poly) {
		var seed [32]byte
		binary.LittleEndian.PutUint64(seed[:], next)
		next++
		r.UniformFromSeed(seed, p)
	}
	if x := uniformChiSquare(t, r, seeded); x > chiSquare63 {
		t.Errorf("UniformFromSeed χ² = %.2f > %.2f", x, chiSquare63)
	}
}

// TestUniformFromSeedWireContract pins the seed expansion of v2 uploads:
// both endpoints must derive the same `a` from a seed, across versions, so
// its output for a fixed seed and modulus is a constant of the wire format.
func TestUniformFromSeedWireContract(t *testing.T) {
	q, err := GenerateNTTPrime(50, 2048)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(2048, q)
	if err != nil {
		t.Fatal(err)
	}
	var seed [32]byte
	for i := range seed {
		seed[i] = byte(i)
	}
	p := r.NewPoly()
	r.UniformFromSeed(seed, p)
	h := sha256.New()
	var w [8]byte
	for _, c := range p.Coeffs {
		binary.LittleEndian.PutUint64(w[:], c)
		h.Write(w[:])
	}
	const want = "1eff7355ec522a425adf1e378ac78d0712ea5935776d0e2ec0d42127a316d197"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("UniformFromSeed digest %s, want %s: the seed expansion is a wire contract", got, want)
	}
}

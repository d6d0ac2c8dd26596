package core

import (
	"fmt"
	mrand "math/rand/v2"
	"testing"

	"hesgx/internal/he"
	"hesgx/internal/nn"
)

// Differential layout harness: every execution layout the engine offers
// must compute the same integers. One table crosses random small models
// with the scalar, lane-packed and slot-packed layouts, both weight modes
// (the constant-coefficient fast path and full C×P products) and both
// worker settings. Every decrypted logit must equal ReferenceForward, and
// under TruePlainMul every scalar-layout linear step must also match the
// per-product oracle ciphertext for ciphertext.

// differentialSeeds fixes the random models the harness draws.
var differentialSeeds = []uint64{1, 2}

// differentialModel is one random model with its input shape.
type differentialModel struct {
	name    string
	model   *nn.Network
	c, h, w int
}

func differentialModels(seed uint64) []differentialModel {
	r := mrand.New(mrand.NewPCG(seed, 0xd1ff))
	return []differentialModel{
		{"cnn-sigmoid", nn.NewNetwork(
			nn.NewConv2D(1, 2, 3, 1, r),
			nn.NewActivation(nn.Sigmoid),
			nn.NewPool2D(nn.MeanPool, 2),
			&nn.Flatten{},
			nn.NewFullyConnected(2*2*2, 4, r),
		), 1, 6, 6},
		{"cnn-tanh", nn.NewNetwork(
			nn.NewConv2D(2, 2, 2, 1, r),
			nn.NewActivation(nn.Tanh),
			nn.NewPool2D(nn.MeanPool, 2),
			&nn.Flatten{},
			nn.NewFullyConnected(2*2*2, 5, r),
		), 2, 5, 5},
		{"mlp", nn.NewNetwork(
			&nn.Flatten{},
			nn.NewFullyConnected(16, 6, r),
			nn.NewActivation(nn.ReLU),
			nn.NewFullyConnected(6, 3, r),
		), 1, 4, 4},
	}
}

// differentialLayouts name the image encodings under test.
var differentialLayouts = []string{"scalar", "lanes-3", "packed"}

func TestDifferentialLayouts(t *testing.T) {
	// Self-contained (own service and keys, no process-global counters),
	// so it shares the CPU with the full-size CNN tests.
	t.Parallel()
	svc := packedTestService(t, 41)
	client := testClient(t, svc)
	packedCells := 0
	for _, seed := range differentialSeeds {
		for _, m := range differentialModels(seed) {
			imgRNG := mrand.New(mrand.NewPCG(seed, 0x1a6e))
			imgs := make([]*nn.Tensor, 3)
			for i := range imgs {
				imgs[i] = nn.NewTensor(m.c, m.h, m.w)
				for j := range imgs[i].Data {
					imgs[i].Data[j] = imgRNG.Float64()
				}
			}
			for _, layout := range differentialLayouts {
				for _, truePlain := range []bool{false, true} {
					for _, workers := range []int{0, -1} {
						name := fmt.Sprintf("seed%d/%s/%s/trueplain=%v/workers=%d", seed, m.name, layout, truePlain, workers)
						t.Run(name, func(t *testing.T) {
							cfg := packedTestConfig()
							cfg.TruePlainMul = truePlain
							cfg.Workers = workers
							engine, err := newHybridEngine(svc, m.model, cfg)
							if err != nil {
								t.Fatal(err)
							}
							var ci *CipherImage
							lanes := 1
							switch layout {
							case "scalar":
								ci, err = client.EncryptImages(imgs[:1], cfg.PixelScale)
							case "lanes-3":
								lanes = len(imgs)
								ci, err = client.EncryptImages(imgs, cfg.PixelScale)
							case "packed":
								if !engine.PackedInfo().Active {
									t.Skipf("packed layout inactive: %s", engine.PackedInfo().Reason)
								}
								packedCells++
								ci, err = client.EncryptImagePacked(imgs[0], cfg.PixelScale)
							}
							if err != nil {
								t.Fatal(err)
							}
							var res *InferenceResult
							if truePlain {
								res = inferAgainstOracle(t, engine, ci)
							} else if res, err = engine.Infer(ci); err != nil {
								t.Fatal(err)
							}
							got, err := decryptLanes(client, res.Logits, lanes)
							if err != nil {
								t.Fatal(err)
							}
							for lane := 0; lane < lanes; lane++ {
								want, err := engine.ReferenceForward(imgs[lane])
								if err != nil {
									t.Fatal(err)
								}
								for j := range want {
									if got[lane][j] != want[j] {
										t.Fatalf("image %d logit %d: encrypted %d != reference %d", lane, j, got[lane][j], want[j])
									}
								}
							}
						})
					}
				}
			}
		}
	}
	if packedCells == 0 {
		t.Fatal("no model planned the packed layout; the packed cells never ran")
	}
}

// decryptLanes decrypts logits as result[image][logit] for a lanes-wide
// image batch (1 = scalar or slot-packed layout).
func decryptLanes(c *Client, logits []*he.Ciphertext, lanes int) ([][]int64, error) {
	if lanes > 1 {
		return c.DecryptValueBatch(logits, lanes)
	}
	vals, err := c.DecryptValues(logits)
	return [][]int64{vals}, err
}

// TestPlanInfoFCBudgetsMatchFCFormula pins the 1×1-convolution view of
// fully connected layers: the predicted budget the planner reports for the
// FC step must equal the FC noise formula — a fresh (refreshed) input
// bound, weighted-summed over In terms with the worst row ℓ1 norm — for
// the paper CNN and the lane-serving benchmark CNN.
func TestPlanInfoFCBudgetsMatchFCFormula(t *testing.T) {
	hybrid, err := DefaultHybridParameters()
	if err != nil {
		t.Fatal(err)
	}
	simd, err := DefaultSIMDParameters()
	if err != nil {
		t.Fatal(err)
	}
	laneRNG := mrand.New(mrand.NewPCG(52, 53))
	cases := []struct {
		name   string
		params he.Parameters
		model  *nn.Network
		cfg    Config
	}{
		{"paper-cnn", hybrid, nn.PaperCNN(mrand.New(mrand.NewPCG(7, 11))), DefaultConfig()},
		{"lane-bench-cnn", simd, nn.NewNetwork(
			nn.NewConv2D(1, 6, 3, 1, laneRNG),
			nn.NewActivation(nn.Sigmoid),
			nn.NewPool2D(nn.MeanPool, 2),
			&nn.Flatten{},
			nn.NewFullyConnected(6*5*5, 10, laneRNG),
		), Config{PixelScale: 255, WeightScale: 32, ActScale: 256, Pool: PoolSGXDiv}},
	}
	for _, tc := range cases {
		engine, err := newHybridEngine(testService(t, tc.params), tc.model, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fc := tc.model.Layers[len(tc.model.Layers)-1].(*nn.FullyConnected)
		q, err := nn.QuantizeFC(fc, float64(tc.cfg.WeightScale), float64(tc.cfg.ActScale))
		if err != nil {
			t.Fatal(err)
		}
		want := tc.params.FreshNoiseBound().WeightedSum(float64(q.MaxRowL1()), q.In).AddPlain().BudgetBits()
		info := engine.PlanInfo()
		last := info[len(info)-1]
		if last.Kind != "fc" || last.PredictedBudgetBits != want {
			t.Fatalf("%s: FC step %+v, want kind fc with predicted budget %v", tc.name, last, want)
		}
	}
}

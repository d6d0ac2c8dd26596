package main

import (
	"fmt"
	mrand "math/rand/v2"

	"hesgx/internal/core"
	"hesgx/internal/nn"
	"hesgx/internal/wire"
)

// workload is one traffic mix: a model and its engine options, the
// request shape, how many closed-loop connections drive it and which wire
// call each request makes.
type workload struct {
	name string
	why  string
	// conns is the number of wire connections, each a closed loop.
	conns int
	// batch is the number of images in one request.
	batch int
	// c, h, w is the image shape.
	c, h, w int
	// packed marks a workload that must run the engine's rotation-keyed
	// packed prefix; set-up fails when the plan is inactive.
	packed bool
	// galoisSteps, when non-nil, are the rotation steps the first client
	// uploads keys for during set-up.
	galoisSteps []int
	pixelScale  uint64
	model       func() *nn.Network
	engineOpts  []core.EngineOption
	// call sends one request and returns per-image logits.
	call func(c *wire.Client, imgs []*nn.Tensor, pixelScale uint64) ([][]float64, error)
}

// modelSeed fixes the model weights; only the pixels follow --seed.
const modelSeed = 42

func newRand(seed, stream uint64) *mrand.Rand {
	return mrand.New(mrand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// images draws one request's images from r.
func (wl *workload) images(r *mrand.Rand) []*nn.Tensor {
	out := make([]*nn.Tensor, wl.batch)
	for i := range out {
		img := nn.NewTensor(wl.c, wl.h, wl.w)
		for j := range img.Data {
			img.Data[j] = r.Float64()
		}
		out[i] = img
	}
	return out
}

// send makes one request for imgs on c.
func (wl *workload) send(c *wire.Client, imgs []*nn.Tensor) ([][]float64, error) {
	return wl.call(c, imgs, wl.pixelScale)
}

func inferOne(c *wire.Client, imgs []*nn.Tensor, pixelScale uint64) ([][]float64, error) {
	logits, err := c.Infer(imgs[0], pixelScale)
	return [][]float64{logits}, err
}

func inferPacked(c *wire.Client, imgs []*nn.Tensor, pixelScale uint64) ([][]float64, error) {
	logits, err := c.InferPacked(imgs[0], pixelScale)
	return [][]float64{logits}, err
}

func inferBatch(c *wire.Client, imgs []*nn.Tensor, pixelScale uint64) ([][]float64, error) {
	return c.InferBatch(imgs, pixelScale)
}

// convTapSteps lists the slot rotations a k×k convolution needs over a
// width-wide row-major slot layout: tap (ky, kx) is a left rotation by
// ky·width + kx. The 2×2 mean-pool offsets are a subset.
func convTapSteps(k, width int) []int {
	var steps []int
	for ky := 0; ky < k; ky++ {
		for kx := 0; kx < k; kx++ {
			if s := ky*width + kx; s != 0 {
				steps = append(steps, s)
			}
		}
	}
	return steps
}

// laneBenchCNN is the small CNN of the lane-serving benchmarks: conv 6×3×3
// → sigmoid → 2×2 mean pool → FC 150→10 over 12×12 images.
func laneBenchCNN() *nn.Network {
	r := newRand(modelSeed, 0)
	return nn.NewNetwork(
		nn.NewConv2D(1, 6, 3, 1, r),
		nn.NewActivation(nn.Sigmoid),
		nn.NewPool2D(nn.MeanPool, 2),
		&nn.Flatten{},
		nn.NewFullyConnected(6*5*5, 10, r),
	)
}

func workloads() []*workload {
	lanePixel := core.DefaultConfig().PixelScale
	return []*workload{
		{
			name:  "packed-28",
			why:   "paper CNN on slot-packed 28x28 queries: rotations, hoisted key-switching and the pool-unpack ECALL that re-encrypts 864 ciphertexts; client work nearly idle",
			conns: 1, batch: 1, c: 1, h: 28, w: 28,
			packed:      true,
			galoisSteps: convTapSteps(5, 28),
			pixelScale:  255,
			model:       func() *nn.Network { return nn.PaperCNN(newRand(modelSeed, 0)) },
			engineOpts:  []core.EngineOption{core.WithScales(255, 8, 256), core.WithPackedConv(true)},
			call:        inferPacked,
		},
		{
			name:  "lane-batch-12",
			why:   "64 client-packed 12x12 images per request: client encryption, a 4.1 MB upload and the SIMD act ECALL over 600 ciphertexts; no rotations, server lane packer unused",
			conns: 1, batch: 64, c: 1, h: 12, w: 12,
			pixelScale: lanePixel,
			model:      laneBenchCNN,
			engineOpts: []core.EngineOption{core.WithPoolStrategy(core.PoolSGXDiv)},
			call:       inferBatch,
		},
		{
			name:  "scalar-12",
			why:   "one 12x12 image per request, seeded v2 upload: the server lane packer waits out its 5 ms window and falls back to a scalar pass; the only workload using the packer",
			conns: 1, batch: 1, c: 1, h: 12, w: 12,
			pixelScale: lanePixel,
			model:      laneBenchCNN,
			engineOpts: []core.EngineOption{core.WithPoolStrategy(core.PoolSGXDiv)},
			call:       inferOne,
		},
	}
}

func findWorkload(name string) (*workload, error) {
	for _, wl := range workloads() {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

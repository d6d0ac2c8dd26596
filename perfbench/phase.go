package main

import (
	"fmt"
	"math"
	mrand "math/rand/v2"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"hesgx/internal/core"
	"hesgx/internal/he"
	"hesgx/internal/nn"
	"hesgx/internal/trace"
	"hesgx/internal/wire"
)

// sample is one request of a measured phase.
type sample struct {
	lat    time.Duration
	imgs   []*nn.Tensor
	logits [][]float64
	err    error
	// keySwitches is the growth of he.KeySwitchOps over the request
	// (meaningful with one connection).
	keySwitches uint64
	// tr is the assembled client+server trace (traced phases only).
	tr *trace.Trace
}

// phase is one closed-loop measurement window and the counter deltas
// taken over it.
type phase struct {
	samples   []sample
	elapsed   time.Duration
	cpu       time.Duration
	up, down  int64
	peakHeap  uint64
	ecalls    uint64
	nttFwd    uint64
	nttInv    uint64
	keySwitch uint64
	hoisted   uint64
	// lanePacked and laneFallback count requests the server's lane packer
	// put into shared passes and sent down scalar fallback passes.
	lanePacked   int64
	laneFallback int64
}

// runPhase drives every client in its own closed loop: a client sends its
// next request as soon as the previous reply is decrypted, until dur has
// passed since the start. Requests in flight at the deadline finish and
// count. stream separates the input streams of different phases.
func runPhase(st *stack, wl *workload, clients []*wire.Client, seed, stream uint64, dur time.Duration) *phase {
	r := st.svc.Params().Ring()
	fwd0, inv0 := r.NTTCounts()
	ks0, hr0 := he.KeySwitchOps(), he.HoistedRotations()
	sgx0 := st.platform.Snapshot()
	up0, down0 := st.ln.up.Load(), st.ln.down.Load()
	packed, fallback := st.service.Metrics.Counter("serve.lanes.packed_requests"), st.service.Metrics.Counter("serve.lanes.fallback_requests")
	packed0, fallback0 := packed.Value(), fallback.Value()
	stopHeap := startHeapSampler()
	cpu0 := cpuTime()
	start := time.Now()

	rnds := make([]*mrand.Rand, len(clients))
	for i := range rnds {
		rnds[i] = newRand(seed, stream<<8|uint64(i))
	}
	perConn := make([][]sample, len(clients))
	request := func(i int) {
		s := sample{imgs: wl.images(rnds[i])}
		ks := he.KeySwitchOps()
		t := time.Now()
		s.logits, s.err = wl.send(clients[i], s.imgs)
		s.lat = time.Since(t)
		s.keySwitches = he.KeySwitchOps() - ks
		s.tr = clients[i].LastTrace()
		perConn[i] = append(perConn[i], s)
	}
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Since(start) < dur {
				request(i)
			}
		}(i)
	}
	wg.Wait()

	p := &phase{elapsed: time.Since(start), cpu: cpuTime() - cpu0, peakHeap: stopHeap()}
	for _, ss := range perConn {
		p.samples = append(p.samples, ss...)
	}
	p.up, p.down = st.ln.up.Load()-up0, st.ln.down.Load()-down0
	p.ecalls = st.platform.Snapshot().Sub(sgx0).ECalls
	fwd1, inv1 := r.NTTCounts()
	p.nttFwd, p.nttInv = fwd1-fwd0, inv1-inv0
	p.keySwitch, p.hoisted = he.KeySwitchOps()-ks0, he.HoistedRotations()-hr0
	p.lanePacked, p.laneFallback = packed.Value()-packed0, fallback.Value()-fallback0
	return p
}

// images counts the images of successful requests.
func (p *phase) images() int {
	n := 0
	for _, s := range p.samples {
		if s.err == nil {
			n += len(s.imgs)
		}
	}
	return n
}

// verify checks every reply against the plaintext oracle: each logit must
// equal, bit for bit, the engine's integer reference logit over the output
// scale (the client computes exactly float64(v)/scale). A packed workload
// must also have key-switched on every request, or it silently fell back to
// the scalar layout. It returns the number of failed requests and the first
// failure.
func verify(engine *core.HybridEngine, wl *workload, samples []sample) (int, error) {
	failed := 0
	var first error
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	scale := engine.OutScale()
	for i, s := range samples {
		if s.err != nil {
			fail(fmt.Errorf("request %d: %w", i, s.err))
			continue
		}
		if wl.packed && s.keySwitches == 0 {
			fail(fmt.Errorf("request %d: no key-switch operations on a packed workload", i))
			continue
		}
		if err := checkLogits(engine, scale, s); err != nil {
			fail(fmt.Errorf("request %d: %w", i, err))
		}
	}
	return failed, first
}

func checkLogits(engine *core.HybridEngine, scale float64, s sample) error {
	if len(s.logits) != len(s.imgs) {
		return fmt.Errorf("%d logit rows for %d images", len(s.logits), len(s.imgs))
	}
	for k, img := range s.imgs {
		ref, err := engine.ReferenceForward(img)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		got := s.logits[k]
		if len(got) != len(ref) {
			return fmt.Errorf("image %d: %d logits, reference has %d", k, len(got), len(ref))
		}
		for j, v := range ref {
			if want := float64(v) / scale; math.Float64bits(got[j]) != math.Float64bits(want) {
				return fmt.Errorf("image %d logit %d: got %v, reference %v", k, j, got[j], want)
			}
		}
	}
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMetric is the bytes of heap memory occupied by objects, live or not
// yet swept.
const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapSampler polls the heap every 5ms until the returned function is
// called; that function stops the poller, waits for it and returns the
// peak seen.
func startHeapSampler() func() uint64 {
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-done
	}
}

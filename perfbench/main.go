// Command perfbench is hesgx's benchmark. Each run builds the whole edge
// server in process — ZeroCost SGX platform, enclave service, hybrid
// engine at the n=2048 SIMD tier, serving pipeline, wire server on
// loopback TCP — and drives it with closed-loop wire clients for one
// workload. Every reply is checked bit for bit against the engine's
// plaintext reference.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload packed-28 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// client tracing off. With --trace 1 it reports the per-layer metrics: half
// the window runs untraced and half traced, the traced requests' span trees
// fold into per-layer self times, and a kernel phase times the ring, he and
// encoding primitives at the same parameters. The last line of standard
// output is one JSON object; the lines before it are a readable report.
// See README.md in this directory for every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setups is the number of stack set-ups per run: setup_s is their median
// and the last one is measured.
const setups = 3

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	setups  int
}

// metric is one reported value. N, the number of samples behind it, is
// printed in the readable report only; the JSON line keeps value and unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or \"all\" for every workload in turn")
	seed := fs.Uint64("seed", 1, "seed of the request images")
	seconds := fs.Float64("seconds", 20, "length of the measured closed-loop window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload, --seconds > 0 and --trace 0|1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traced == 1, setups: setups}
	var wls []*workload
	if *name == "all" {
		wls = workloads()
	} else {
		wl, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		wls = []*workload{wl}
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range wls {
		res, err := runWorkload(cfg, wl, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(wls) > 1 {
				k = wl.name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload sets the stack up cfg.setups times, measures on the last one
// and returns the workload's result. The readable report goes to out.
func runWorkload(cfg config, wl *workload, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "# workload %s seed=%d seconds=%g trace=%v conns=%d images/request=%d\n",
		wl.name, cfg.seed, cfg.seconds, cfg.trace, wl.conns, wl.batch)
	fmt.Fprintf(out, "# why: %s\n", wl.why)
	var st *stack
	times := make([]setupTimes, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		s, err := newStack(wl)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, s.setup)
		if i < cfg.setups-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	fmt.Fprintf(out, "# env %s\n", environment(st))

	dur := time.Duration(cfg.seconds * float64(time.Second))
	untraced := st.clients
	var phases []*phase
	res := &result{Metrics: map[string]metric{}}
	if !cfg.trace {
		runtime.GC()
		ph := runPhase(st, wl, untraced, cfg.seed, 1, dur)
		phases = append(phases, ph)
		endToEnd(res.Metrics, ph, times)
	} else {
		tclients, err := st.dial(wl.conns, true)
		if err != nil {
			return nil, fmt.Errorf("traced clients: %w", err)
		}
		if err := st.warmUp(wl, tclients); err != nil {
			return nil, err
		}
		runtime.GC()
		plain := runPhase(st, wl, untraced, cfg.seed, 1, dur/2)
		runtime.GC()
		traced := runPhase(st, wl, tclients, cfg.seed, 2, dur/2)
		phases = append(phases, plain, traced)
		k, err := runKernels(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("kernel phase: %w", err)
		}
		perLayer(res.Metrics, st, plain, traced, times, k)
	}
	for _, ph := range phases {
		lat := okLatenciesMS(ph)
		fmt.Fprintf(out, "# phase requests=%d elapsed=%.2fs latency_ms n=%d min=%.1f p50=%.1f max=%.1f lane_packed=%d lane_fallback=%d\n",
			len(ph.samples), ph.elapsed.Seconds(), len(lat), quantile(lat, 0), median(lat), quantile(lat, 1),
			ph.lanePacked, ph.laneFallback)
		if len(lat) >= 100 {
			// A percentile is only reported with at least ten samples
			// beyond it.
			fmt.Fprintf(out, "# latency_p90_ms %.4f ms (n=%d)\n", quantile(lat, 0.9), len(lat))
		}
		failed, first := verify(st.engine, wl, ph.samples)
		res.Attempted += len(ph.samples)
		res.Failed += failed
		if first != nil {
			fmt.Fprintf(out, "# first failure: %v\n", first)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(out, "# requests sent=%d succeeded=%d failed=%d\n",
		res.Attempted, res.Attempted-res.Failed, res.Failed)
	printMetrics(out, res.Metrics)
	return res, nil
}

// endToEnd fills the user-visible metrics of one untraced phase. Each
// comes from the phase's completed requests, setup_s from the set-ups.
func endToEnd(m map[string]metric, ph *phase, setups []setupTimes) {
	lat := okLatenciesMS(ph)
	imgs := float64(ph.images())
	n := len(lat)
	m["latency_p50_ms"] = metric{median(lat), "ms", n}
	m["images_per_s"] = metric{imgs / ph.elapsed.Seconds(), "1/s", n}
	m["upload_bytes_per_image"] = metric{div(float64(ph.up), imgs), "bytes", n}
	m["download_bytes_per_image"] = metric{div(float64(ph.down), imgs), "bytes", n}
	m["cpu_ms_per_image"] = metric{div(ph.cpu.Seconds()*1000, imgs), "ms", n}
	m["peak_heap_mb"] = metric{float64(ph.peakHeap) / (1 << 20), "MB", n}
	m["setup_s"] = metric{medianOf(setups, setupTimes.total), "s", len(setups)}
}

// div is a/b, or 0 when nothing was counted (a run whose every request
// failed still prints a result).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func okLatenciesMS(ph *phase) []float64 {
	var out []float64
	for _, s := range ph.samples {
		if s.err == nil {
			out = append(out, float64(s.lat.Nanoseconds())/1e6)
		}
	}
	return out
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return median(vals)
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-28s %14.4f %-5s n=%d\n", k, m[k].Value, m[k].Unit, m[k].N)
	}
}

// environment describes the machine and the configuration a result was
// measured on.
func environment(st *stack) string {
	p := st.svc.Params()
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s sgx=zero-cost fv_n=%d fv_log2q=%.2f fv_t=%d",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		p.N, math.Log2(float64(p.Q)), p.T)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

package main

import (
	"hesgx/internal/trace"
)

// perLayerUnits lists every per-layer metric a traced run prints, with its
// unit. Times ending in _ms are medians over the traced requests of a span
// self time; counts are per request unless the name says otherwise.
var perLayerUnits = []struct{ name, unit string }{
	{"client.encrypt_ms", "ms"},
	{"client.upload_ms", "ms"},
	{"client.wait_ms", "ms"},
	{"client.decrypt_ms", "ms"},
	{"client.cts_up", "count"},
	{"client.cts_down", "count"},
	{"client.self_ms", "ms"},
	{"wire.up_bytes", "bytes"},
	{"wire.down_bytes", "bytes"},
	{"wire.decode_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"wire.transit_ms", "ms"},
	{"wire.self_ms", "ms"},
	{"serve.lane_wait_ms", "ms"},
	{"serve.lane_occupancy", "count"},
	{"serve.lane_fallback_frac", "ratio"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.batch_wait_ms", "ms"},
	{"serve.batch_occupancy", "count"},
	{"serve.self_ms", "ms"},
	{"core.conv_he_ms", "ms"},
	{"core.act_he_ms", "ms"},
	{"core.pool_he_ms", "ms"},
	{"core.fc_he_ms", "ms"},
	{"core.conv_cts_out", "count"},
	{"core.act_cts_out", "count"},
	{"core.pool_cts_out", "count"},
	{"core.fc_cts_out", "count"},
	{"core.self_ms", "ms"},
	{"sgx.ecalls", "count"},
	{"sgx.act_ecall_ms", "ms"},
	{"sgx.pool_ecall_ms", "ms"},
	{"sgx.fresh_encryptions", "count"},
	{"sgx.ecall_bytes_in", "bytes"},
	{"sgx.ecall_bytes_out", "bytes"},
	{"sgx.self_ms", "ms"},
	{"he.encrypt_pk_us", "us"},
	{"he.encrypt_sk_us", "us"},
	{"he.decrypt_us", "us"},
	{"he.rotate_hoisted_us", "us"},
	{"he.keyswitch_ops", "count"},
	{"he.hoisted_rotations", "count"},
	{"ring.ntt_fwd_us", "us"},
	{"ring.ntt_inv_us", "us"},
	{"ring.gaussian_poly_us", "us"},
	{"ring.ternary_poly_us", "us"},
	{"ring.uniform_seed_poly_us", "us"},
	{"ring.ntt_fwd", "count"},
	{"ring.ntt_inv", "count"},
	{"encoding.batch_encode_us", "us"},
	{"encoding.batch_decode_us", "us"},
	{"setup.enclave_s", "s"},
	{"setup.weights_s", "s"},
	{"setup.attest_s", "s"},
	{"setup.galois_keys_s", "s"},
	{"setup.warmup_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.self_time_coverage", "ratio"},
	{"trace.requests", "count"},
}

// layers are the span layers whose self times make up a request.
var layers = []string{"client", "wire", "serve", "core", "sgx", "other"}

// perLayer fills the per-layer metrics: self times and counts from the
// traced phase's span trees, wire bytes from the untraced phase's socket
// counts, op counts from counter deltas over the traced phase, kernel
// times from the kernel phase and stage times from the set-ups. Each
// metric's sample count is the traced requests folded unless samples
// overrides it.
func perLayer(m map[string]metric, st *stack, plain, traced *phase, setups []setupTimes, k *kernels) {
	val := map[string]float64{}
	samples := map[string]int{}

	serverTraces := map[uint64]*trace.Trace{}
	for _, tr := range st.service.Tracer.Last(0) {
		serverTraces[tr.ID] = tr
	}
	var folds []requestFold
	var tracedLat, encodeMS []float64
	flows := map[ecallKey]ecallFlow{}
	for _, s := range traced.samples {
		if s.err != nil || s.tr == nil {
			continue
		}
		nodes := buildTree(s.tr.Spans())
		folds = append(folds, foldRequest(nodes))
		ecallFlows(nodes, flows)
		tracedLat = append(tracedLat, float64(s.lat.Nanoseconds())/1e6)
		// The server records wire.encode after the reply's span snapshot
		// is taken, so it is only in the server's own copy of the trace.
		for _, sp := range serverTraces[s.tr.ID].Spans() {
			if sp.Name == "wire.encode" {
				encodeMS = append(encodeMS, float64(sp.Dur.Nanoseconds())/1e6)
			}
		}
	}
	n := float64(len(folds))

	medianMS := func(key string) float64 {
		return medianOf(folds, func(f requestFold) float64 { return f.ms[key] })
	}
	for _, u := range perLayerUnits {
		if u.unit == "ms" {
			val[u.name] = medianMS(u.name)
		}
	}
	coverage := 0.0
	for _, l := range layers {
		coverage += medianMS(l + ".self_ms")
	}
	tracedP50 := median(tracedLat)
	val["trace.self_time_coverage"] = div(coverage, tracedP50)
	counts := map[string]float64{}
	var laneReqs, laneSum, fallbacks, shared, sharedN float64
	for _, f := range folds {
		for name, v := range f.counts {
			counts[name] += v
		}
		if f.lanes > 0 {
			laneReqs++
			laneSum += f.lanes
			if f.lanes == 1 {
				fallbacks++
			}
		}
		for _, v := range f.batchShared {
			shared += v
			sharedN++
		}
	}
	for name, v := range counts {
		val[name] = v / n
	}
	val["client.cts_down"] = val["core.fc_cts_out"]
	val["wire.encode_ms"] = median(encodeMS)
	val["serve.lane_occupancy"] = div(laneSum, laneReqs)
	val["serve.lane_fallback_frac"] = div(fallbacks, laneReqs)
	val["serve.batch_occupancy"] = div(shared, sharedN)

	// Enclave traffic, computed: ciphertext counts times the serialized
	// size of a fresh ciphertext at these parameters.
	var ctsIn, ctsOut float64
	for _, fl := range flows {
		ctsIn += fl.in
		ctsOut += fl.out
	}
	val["sgx.fresh_encryptions"] = div(ctsOut, n)
	val["sgx.ecall_bytes_in"] = div(ctsIn*float64(k.ctWireLen), n)
	val["sgx.ecall_bytes_out"] = div(ctsOut*float64(k.ctWireLen), n)

	reqs := float64(len(traced.samples))
	perRequest := func(name string, total uint64) {
		val[name] = div(float64(total), reqs)
		samples[name] = len(traced.samples)
	}
	perRequest("sgx.ecalls", traced.ecalls)
	perRequest("he.keyswitch_ops", traced.keySwitch)
	perRequest("he.hoisted_rotations", traced.hoisted)
	perRequest("ring.ntt_fwd", traced.nttFwd)
	perRequest("ring.ntt_inv", traced.nttInv)
	plainReqs := float64(len(plain.samples))
	val["wire.up_bytes"] = div(float64(plain.up), plainReqs)
	val["wire.down_bytes"] = div(float64(plain.down), plainReqs)
	samples["wire.up_bytes"], samples["wire.down_bytes"] = len(plain.samples), len(plain.samples)
	samples["wire.encode_ms"] = len(encodeMS)
	for name, v := range k.us {
		val[name] = v
		samples[name] = k.reps[name]
	}
	stage := func(name string, f func(setupTimes) float64) {
		val[name] = medianOf(setups, f)
		samples[name] = len(setups)
	}
	stage("setup.enclave_s", func(s setupTimes) float64 { return s.enclave })
	stage("setup.weights_s", func(s setupTimes) float64 { return s.weights })
	stage("setup.attest_s", func(s setupTimes) float64 { return s.attest })
	stage("setup.galois_keys_s", func(s setupTimes) float64 { return s.galois })
	stage("setup.warmup_s", func(s setupTimes) float64 { return s.warmup })
	if p := median(okLatenciesMS(plain)); p > 0 {
		val["trace.overhead_frac"] = tracedP50/p - 1
	}
	val["trace.requests"] = n

	for _, u := range perLayerUnits {
		c, ok := samples[u.name]
		if !ok {
			c = len(folds)
		}
		m[u.name] = metric{val[u.name], u.unit, c}
	}
}

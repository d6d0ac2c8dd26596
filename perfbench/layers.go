package main

import (
	"strings"
	"time"

	"hesgx/internal/trace"
)

// Span tree folding. The client assembles one trace per traced request:
// its own encrypt/upload/wait/decrypt spans plus the server's subtree,
// grafted under the client root. The server subtree ran inside the
// client's wait, so folding re-parents the server root under client.wait;
// then every span's self time (its duration minus the part of it its
// children cover) lands in exactly one layer, and the self times of a
// request add up to its client-side wall-clock.

// node is one span of a folded trace.
type node struct {
	trace.Span
	children []*node
	parent   *node
}

func (n *node) end() time.Time { return n.Start.Add(n.Dur) }

func (n *node) arg(key string) (float64, bool) {
	for _, a := range n.Args {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// self is the part of n's interval that none of its children covers.
func (n *node) self() time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range n.children {
		a, b := c.Start, c.end()
		if a.Before(n.Start) {
			a = n.Start
		}
		if b.After(n.end()) {
			b = n.end()
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Insertion sort: a span has a handful of children.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a.Before(ivs[j-1].a); j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return n.Dur - covered
}

// ancestor returns the nearest ancestor whose name starts with prefix.
func (n *node) ancestor(prefix string) *node {
	for p := n.parent; p != nil; p = p.parent {
		if strings.HasPrefix(p.Name, prefix) {
			return p
		}
	}
	return nil
}

// buildTree links the spans of one assembled trace, with the grafted
// server root moved under client.wait.
func buildTree(spans []trace.Span) []*node {
	nodes := make([]*node, len(spans))
	byID := make(map[trace.SpanID]*node, len(spans))
	var wait, serverRoot *node
	for i := range spans {
		n := &node{Span: spans[i]}
		nodes[i] = n
		byID[n.ID] = n
		switch {
		case n.Name == "client.wait":
			wait = n
		case n.Cat == "request" && n.ID != trace.RootSpanID:
			serverRoot = n
		}
	}
	if wait != nil && serverRoot != nil {
		serverRoot.Parent = wait.ID
	}
	for _, n := range nodes {
		if n.ID == trace.RootSpanID {
			continue
		}
		if p := byID[n.Parent]; p != nil && p != n {
			n.parent = p
			p.children = append(p.children, n)
		}
	}
	return nodes
}

// layerOf names the layer a span's self time belongs to.
func layerOf(n *node) string {
	switch {
	case n.ID == trace.RootSpanID:
		return "client"
	case n.Name == "client.wait", n.Cat == "request", n.Cat == "wire":
		// client.wait's self time is the reply encode and the socket
		// transfer, which no server span covers.
		return "wire"
	case n.Cat == "client":
		return "client"
	case n.Cat == "serve":
		return "serve"
	case n.Cat == "engine":
		return "core"
	case n.Cat == "sgx":
		return "sgx"
	}
	return "other"
}

// spanMetric maps a span name to the per-layer self-time metric it feeds
// ("" when the span only counts toward its layer's total).
func spanMetric(n *node) string {
	switch n.Name {
	case "client.encrypt":
		return "client.encrypt_ms"
	case "client.upload":
		return "client.upload_ms"
	case "client.decrypt":
		return "client.decrypt_ms"
	case "client.wait":
		return "wire.transit_ms"
	case "wire.decode":
		return "wire.decode_ms"
	case "queue.wait":
		return "serve.queue_wait_ms"
	case "lane.wait":
		return "serve.lane_wait_ms"
	case "batch.wait":
		return "serve.batch_wait_ms"
	case "layer.conv":
		return "core.conv_he_ms"
	case "layer.act":
		return "core.act_he_ms"
	case "layer.pool":
		return "core.pool_he_ms"
	case "layer.fc":
		return "core.fc_he_ms"
	case "ecall.sigmoid", "ecall.activation":
		return "sgx.act_ecall_ms"
	case "ecall.pool_divide", "ecall.pool_full", "ecall.pool_max", "ecall.pool_unpack":
		return "sgx.pool_ecall_ms"
	}
	return ""
}

// requestFold is one traced request reduced to per-layer numbers.
type requestFold struct {
	// ms holds self times by metric name and by layer ("client.self_ms"),
	// and the whole client wait ("client.wait_ms").
	ms map[string]float64
	// counts holds ciphertext counts: the first layer's input
	// ("client.cts_up") and each layer kind's output ("core.conv_cts_out").
	counts map[string]float64
	// lanes is the lane count of the pass the lane packer put the request
	// in (1: scalar fallback; 0: the packer was not involved).
	lanes float64
	// batchShared lists, per cross-request batched ECALL the request
	// joined, how many requests shared it.
	batchShared []float64
}

func foldRequest(nodes []*node) requestFold {
	f := requestFold{ms: map[string]float64{}, counts: map[string]float64{}}
	for _, n := range nodes {
		self := float64(n.self().Nanoseconds()) / 1e6
		f.ms[layerOf(n)+".self_ms"] += self
		if m := spanMetric(n); m != "" {
			f.ms[m] += self
		}
		switch {
		case n.Name == "client.wait":
			f.ms["client.wait_ms"] = float64(n.Dur.Nanoseconds()) / 1e6
		case strings.HasPrefix(n.Name, "layer."):
			if v, ok := n.arg("cts_out"); ok {
				f.counts["core."+strings.TrimPrefix(n.Name, "layer.")+"_cts_out"] = v
			}
			if step, ok := n.arg("step"); ok && step == 0 {
				f.counts["client.cts_up"], _ = n.arg("cts_in")
			}
		case n.Name == "lane.wait":
			f.lanes, _ = n.arg("lanes")
		case n.Name == "batch.wait":
			if v, ok := n.arg("shared_requests"); ok {
				f.batchShared = append(f.batchShared, v)
			}
		}
	}
	return f
}

// ecallKey identifies one enclave call across traces: a call shared by
// several requests (a batched ECALL, a lane-packed pass) is recorded in
// each of their traces with the same name and start.
type ecallKey struct {
	name  string
	start int64
}

// ecallFlow is the computed ciphertext traffic of one enclave call.
type ecallFlow struct{ in, out float64 }

// ecallFlows collects the distinct enclave calls of a trace with their
// input and output ciphertext counts. The span records the input count;
// the output count follows from the op: a pool unpack returns its pool
// layer's output, a lane pack merges lanes into one set of positions, a
// lane demux splits them again, and every other op maps one ciphertext to
// one.
func ecallFlows(nodes []*node, into map[ecallKey]ecallFlow) {
	for _, n := range nodes {
		if n.Cat != "sgx" || !strings.HasPrefix(n.Name, "ecall.") {
			continue
		}
		in, _ := n.arg("cts")
		out := in
		switch n.Name {
		case "ecall.pool_unpack", "ecall.pool_full", "ecall.pool_max":
			if l := n.ancestor("layer."); l != nil {
				out, _ = l.arg("cts_out")
			}
		case "ecall.lane_pack", "ecall.lane_demux":
			lanes := 1.0
			if fl := n.ancestor("lane.flush"); fl != nil {
				if v, ok := fl.arg("lanes"); ok && v > 0 {
					lanes = v
				}
			}
			if n.Name == "ecall.lane_pack" {
				out = in / lanes
			} else {
				out = in * lanes
			}
		}
		into[ecallKey{n.Name, n.Start.UnixNano()}] = ecallFlow{in, out}
	}
}

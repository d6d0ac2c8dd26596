package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"hesgx/internal/trace"
)

// manifest is the part of ../BENCHMARK.json the tests check against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// runShort runs one workload with a single set-up for a short window and
// returns its result, as the JSON line encodes it, and the readable report.
func runShort(t *testing.T, wl, traced string) (result, string) {
	t.Helper()
	w, err := findWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg := config{seed: 7, seconds: 0.5, trace: traced == "1", setups: 1}
	r, err := runWorkload(cfg, w, &out)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	return res, out.String()
}

// TestWorkloadsPrintEveryMetric runs each workload of the manifest for a
// few requests, traced and untraced, and checks that every reply was right
// and that every declared metric is printed, in the JSON line and the
// readable report, with its declared unit and a sample count.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	m := loadManifest(t)
	for _, w := range m.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Fatal(err)
		}
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+traced, func(t *testing.T) {
				res, out := runShort(t, w.Name, traced)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				want := m.EndToEnd
				if traced == "1" {
					want = m.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, manifest declares %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if got.Unit != d.Unit {
						t.Errorf("metric %s unit %q, manifest says %q", d.Name, got.Unit, d.Unit)
					}
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.Name) + ` +-?[0-9.]+ +` + regexp.QuoteMeta(d.Unit) + ` +n=[1-9][0-9]*$`)
					if !line.MatchString(out) {
						t.Errorf("metric %s missing from the report with its unit and sample count", d.Name)
					}
				}
			})
		}
	}
}

// TestRunPrintsResultLast runs the command as the manifest does and checks
// that the last line of its output is the JSON result.
func TestRunPrintsResultLast(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "packed-28", "--seed", "3", "--seconds", "0.5", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(loadManifest(t).EndToEnd) {
		t.Fatalf("result %+v\n%s", res, out.String())
	}
	if !strings.Contains(out.String(), "setup_s ") || !strings.Contains(out.String(), fmt.Sprintf(" n=%d\n", setups)) {
		t.Errorf("setup_s is not reported over %d set-ups:\n%s", setups, out.String())
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result: %s", out.String())
	}
}

// TestFoldSelfTimes checks the fold on a hand-built trace: the server root
// moves under client.wait, overlapping children count once, and the self
// times add up to the root's duration.
func TestFoldSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	dur := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []trace.Span{
		{ID: 1, Name: "client.infer", Cat: "request", Start: at(0), Dur: dur(100)},
		{ID: 2, Parent: 1, Name: "client.encrypt", Cat: "client", Start: at(0), Dur: dur(10)},
		{ID: 3, Parent: 1, Name: "client.wait", Cat: "client", Start: at(10), Dur: dur(85)},
		// Grafted server subtree: its root hangs off the client root.
		{ID: 4, Parent: 1, Name: "request", Cat: "request", Start: at(12), Dur: dur(80)},
		{ID: 5, Parent: 4, Name: "layer.act", Cat: "engine", Start: at(15), Dur: dur(60),
			Args: []trace.Arg{{Key: "step", Val: 1}, {Key: "cts_out", Val: 600}}},
		{ID: 6, Parent: 5, Name: "ecall.sigmoid", Cat: "sgx", Start: at(20), Dur: dur(30),
			Args: []trace.Arg{{Key: "cts", Val: 600}}},
		{ID: 7, Parent: 5, Name: "batch.wait", Cat: "serve", Start: at(50), Dur: dur(10),
			Args: []trace.Arg{{Key: "shared_requests", Val: 2}}},
	}
	nodes := buildTree(spans)
	f := foldRequest(nodes)
	check := func(name string, want float64) {
		t.Helper()
		if got := f.ms[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("wire.transit_ms", 5)   // 85 ms wait minus the 80 ms server root
	check("wire.self_ms", 5+20)   // transit plus the server root's own 80-60
	check("core.act_he_ms", 20)   // 60 ms minus its children's 40 ms
	check("sgx.act_ecall_ms", 30) // leaf
	check("client.self_ms", 10+5) // encrypt plus the root's uncovered 95..100
	total := 0.0
	for _, l := range layers {
		total += f.ms[l+".self_ms"]
	}
	if total != 100 {
		t.Errorf("self times add up to %v ms, want the root's 100", total)
	}
	if f.counts["core.act_cts_out"] != 600 || f.ms["client.wait_ms"] != 85 ||
		len(f.batchShared) != 1 || f.batchShared[0] != 2 {
		t.Errorf("counts: %+v wait %v shared %v", f.counts, f.ms["client.wait_ms"], f.batchShared)
	}
	// Overlapping children (20..50 and 40..60 of a 0..100 span) cover
	// 40 ms, counted once.
	parent := &node{Span: trace.Span{Start: at(0), Dur: dur(100)}}
	parent.children = []*node{
		{Span: trace.Span{Start: at(20), Dur: dur(30)}},
		{Span: trace.Span{Start: at(40), Dur: dur(20)}},
	}
	if got := parent.self(); got != dur(60) {
		t.Errorf("self with overlapping children = %v, want 60ms", got)
	}
	flows := map[ecallKey]ecallFlow{}
	ecallFlows(nodes, flows)
	ecallFlows(nodes, flows) // the same call seen from a second trace counts once
	if len(flows) != 1 {
		t.Fatalf("%d distinct enclave calls, want 1", len(flows))
	}
}

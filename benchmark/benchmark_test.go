package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// Test scales: a tenth of the KV data (10,000 records) still overflows the
// default pools, so evictions, write-back and GC all run, and a twentieth
// of the page_file device (13 blocks) still collects every block during
// ageing.
const (
	kvTestScale   = 0.1
	pageTestScale = 0.05
)

// testOptions shrinks w to test scale: 6,000 page updates or 30,000 KV
// operations in the measured phase.
func testOptions(t *testing.T, w *workload, seed int64, trace bool) options {
	ops, scale := 6000.0, pageTestScale
	if w.kv {
		ops, scale = 30000, kvTestScale
	}
	return options{seed: seed, seconds: 10 * ops / float64(w.ops), scale: scale, trace: trace, dir: t.TempDir()}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json and the program together: the
// same workloads, the same metric names, units, directions and bounds,
// every name and unit well-formed, every limit respected.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}
	if !reflect.DeepEqual(bf.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command = %v", bf.Command)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program (limit 2..8)", n, len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}

	if n := len(bf.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program (limit 1..16)", n, len(endToEnd))
	}
	hasSetup := false
	for i, e := range bf.EndToEnd {
		checkName("end-to-end", e.Name)
		d := endToEnd[i]
		if e.Bound == nil || e.Name != d.name || e.Unit != d.unit || e.Better != d.better || *e.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, e, d)
		}
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %q: bad unit, direction or bound", e.Name)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if n := len(bf.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (limit 1..128)", n, len(perLayer))
	}
	for i, e := range bf.PerLayer {
		checkName("per-layer", e.Name)
		d := perLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, e, d)
		}
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("per-layer metric %q: bad unit or direction", e.Name)
		}
	}
}

func wantMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, %d defined", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s missing, mis-united or not a number: %+v", res.Workload, d.name, v)
		}
	}
}

// TestWorkloads runs every workload at test scale, untraced and traced,
// with the full restart check: nothing may fail, every metric must be
// printed, every end-to-end metric must be non-zero, and the layers'
// self times must add up to the traced per-operation wall time.
func TestWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			o := testOptions(t, w, 1, false)
			res := result{Workload: w.name}
			m := metrics{}
			if err := untraced(w, o, false, m, &res); err != nil {
				t.Fatal(err)
			}
			res.Metrics = m.emit(endToEnd)
			if res.Failed != 0 || res.Attempted < o.ops(w, 1) {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			wantMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive on every workload", d.name, res.Metrics[d.name].Value)
				}
			}

			o.trace = true
			res, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: attempted %d, failed %d", res.Attempted, res.Failed)
			}
			wantMetrics(t, res, perLayer)
			v := func(name string) float64 { return res.Metrics[name].Value }
			sum := v("driver.self_us_per_op") + v("kv.self_us_per_op") + v("core.self_us_per_op") + v("device.busy_us_per_op")
			if wall := v("trace.wall_us_per_op"); wall <= 0 || math.Abs(sum-wall) > 0.05*wall {
				t.Errorf("layer self times sum to %.3f us/op, traced wall is %.3f us/op", sum, wall)
			}
			if v("trace.overhead_ratio") <= 0 {
				t.Error("trace.overhead_ratio not reported")
			}
			if _, err := os.Stat(o.dir + "/trace_" + w.name + ".json"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestPageFileRepeats: page_file's counts and simulated times are a
// function of the seed alone.
func TestPageFileRepeats(t *testing.T) {
	w := findWorkload("page_file")
	counts := func(seed int64) []float64 {
		var res result
		m := metrics{}
		if err := untraced(w, testOptions(t, w, seed, false), false, m, &res); err != nil || res.Failed != 0 {
			t.Fatalf("seed %d: %v, failed=%d", seed, err, res.Failed)
		}
		vals := []float64{m["gc.pages_moved_per_run"], m["core.diff_bytes_per_diff"]}
		for _, defs := range [][]metricDef{endToEnd, untracedToo} {
			for _, d := range defs {
				if d.exact {
					vals = append(vals, m[d.name])
				}
			}
		}
		return vals
	}
	a, again, other := counts(7), counts(7), counts(8)
	if !reflect.DeepEqual(a, again) {
		t.Errorf("same seed, different counts:\n%v\n%v", a, again)
	}
	if reflect.DeepEqual(a, other) {
		t.Errorf("different seeds, same counts: %v", a)
	}
}

// TestRunArguments: the driver's spelling of the flags works, the
// end-to-end invocation repeats its set-up, -json appends, two runs of one
// seed agree bit for bit, and bad arguments are refused.
func TestRunArguments(t *testing.T) {
	dir := t.TempDir()
	out := dir + "/r.json"
	args := []string{"--workload", "page_file", "--seed", "3", "--seconds", "0.1", "--trace", "0", "-dir", dir, "-json", out}
	for i := 0; i < 2; i++ {
		if code := run(args, pageTestScale); code != 0 {
			t.Fatalf("run(%v) = %d", args, code)
		}
	}
	set, err := loadResults(out)
	if err != nil || len(set.Results) != 2 || !set.Results[1].Correct || set.Results[1].Seed != 3 {
		t.Fatalf("result file: %v, %+v", err, set)
	}
	wantMetrics(t, set.Results[1], endToEnd)
	if code := run([]string{"-agree", out, out}, 1); code != 0 {
		t.Errorf("a result set does not agree with itself: exit %d", code)
	}
	for _, bad := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"-agree", out}, {"-scale", "0.1"}} {
		if code := run(bad, 1); code != 2 {
			t.Errorf("run(%v) = %d, want 2", bad, code)
		}
	}
}

// TestSelfTimes checks the span-tree arithmetic on a hand-built trace: an
// op with two Method calls, one of which has overlapping Device children
// (the union is subtracted, not the sum) and one child that outlives its
// parent (clipped).
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1, name: spPut, n: 1},            // 0: op
		{start: 10, end: 40, parent: 0, name: spReadPage, n: 1},        // 1: method
		{start: 12, end: 20, parent: 1, name: spDevRead, n: 1},         // 2
		{start: 50, end: 90, parent: 0, name: spWriteBatch, n: 4},      // 3: method
		{start: 55, end: 70, parent: 3, name: spDevRead, n: 1},         // 4: concurrent with 5
		{start: 60, end: 80, parent: 3, name: spDevRead, n: 1},         // 5
		{start: 85, end: 95, parent: 3, name: spDevProgramBatch, n: 4}, // 6: clipped at 90
	}
	self, covered := selfTimes(spans)
	wantSelf := []int64{100 - 30 - 40, 30 - 8, 8, 40 - 25 - 5, 15, 20, 10}
	wantCov := []int64{70, 8, 0, 30, 0, 0, 0}
	if !reflect.DeepEqual(self, wantSelf) || !reflect.DeepEqual(covered, wantCov) {
		t.Errorf("self = %v, want %v; covered = %v, want %v", self, wantSelf, covered, wantCov)
	}

	m := metrics{}
	spanMetrics(m, spans, len(spans), 1, 120, true)
	for name, want := range map[string]float64{
		"driver.self_us_per_op":             0.020, // 120 ns of loop, 100 in the op
		"kv.self_us_per_op":                 0.030,
		"core.self_us_per_op":               0.032,
		"device.busy_us_per_op":             0.038,
		"core.write_batch_self_us_per_page": 0.0025,
		"kv.method_calls_per_op":            2,
		"trace.spans_per_op":                7,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestWrappersChangeNothing: a page_file-shaped run over tracedMethod and
// tracedDevice, recording on, leaves the same device counters, the same
// store telemetry and the same page bytes as the run over the bare store;
// and a striped store still sees two channels and still batches its
// programs through the traced device.
func TestWrappersChangeNothing(t *testing.T) {
	w := findWorkload("page_file")
	var envs [2]*env
	for i, tracedRun := range []bool{false, true} {
		e, err := build(w, config{seed: 5, scale: pageTestScale, dir: t.TempDir(), traced: tracedRun})
		if err != nil {
			t.Fatal(err)
		}
		defer e.discard()
		if tracedRun {
			e.rec.on.Store(true)
		}
		if p := runPhase(e.cls, 2000, false, e.load.step, nil); p.failed != 0 {
			t.Fatalf("traced=%v: %d operations failed", tracedRun, p.failed)
		}
		if err := e.load.ack(); err != nil {
			t.Fatal(err)
		}
		envs[i] = e
	}
	bare, tr := envs[0], envs[1]
	if len(tr.rec.recorded()) == 0 {
		t.Fatal("the traced run recorded no spans")
	}
	if a, b := bare.inner.Stats(), tr.inner.Stats(); a != b {
		t.Errorf("device counters differ:\nbare   %+v\ntraced %+v", a, b)
	}
	if a, b := bare.store.Telemetry(), tr.store.Telemetry(); a != b {
		t.Errorf("store telemetry differs:\nbare   %+v\ntraced %+v", a, b)
	}
	if bare.store.Telemetry().BatchWrites == 0 || bare.store.Telemetry().BatchReads == 0 {
		t.Error("the page_file round never took the batch paths")
	}
	pa, pb := make([]byte, bare.store.PageSize()), make([]byte, tr.store.PageSize())
	for pid := 0; pid < bare.numPages; pid++ {
		if err := bare.store.ReadPage(uint32(pid), pa); err != nil {
			t.Fatal(err)
		}
		if err := tr.method.ReadPage(uint32(pid), pb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa, pb) {
			t.Fatalf("page %d differs between the bare and the traced run", pid)
		}
	}

	ks, err := build(findWorkload("ycsb_a"), config{seed: 5, scale: kvTestScale, dir: t.TempDir(), traced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ks.discard()
	if err := ks.load.ack(); err != nil {
		t.Fatal(err)
	}
	if ch := ks.store.Channels(); ch != 2 {
		t.Errorf("striped store over tracedDevice reports %d channels, want 2", ch)
	}
	if ks.store.Telemetry().BatchWrites == 0 {
		t.Error("striped store over tracedDevice issued no ProgramBatch")
	}
}

func set(workload string, seed int64, metric string, vals ...float64) resultSet {
	var s resultSet
	for _, v := range vals {
		s.Results = append(s.Results, result{Workload: workload, Seed: seed, Seconds: 10,
			Metrics: map[string]metricValue{metric: {Value: v}}})
	}
	return s
}

// TestAgree checks each verdict of the -agree comparison.
func TestAgree(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b resultSet
		want string
	}{
		{"within the bound", set("ycsb_a", 1, "ops_per_s", 100), set("ycsb_a", 1, "ops_per_s", 95), within},
		{"past the bound", set("ycsb_a", 1, "ops_per_s", 100), set("ycsb_a", 1, "ops_per_s", 70), outside},
		{"past the bound but one side is as noisy", set("ycsb_a", 1, "ops_per_s", 60, 100, 140, 100), set("ycsb_a", 1, "ops_per_s", 70), unresolved},
		{"page_file counts of two seeds may differ a little", set("page_file", 1, "sim_us_per_op", 842.8), set("page_file", 2, "sim_us_per_op", 843.9), within},
		{"page_file counts of one seed must be bit-equal", set("page_file", 1, "sim_us_per_op", 842.8), set("page_file", 1, "sim_us_per_op", 842.8000001), outside},
		{"page_file counts of one seed, equal", set("page_file", 1, "write_amp", 0.578125), set("page_file", 1, "write_amp", 0.578125), within},
		{"two-client counts of one seed may differ a little", set("ycsb_a", 1, "sim_us_per_op", 371.3), set("ycsb_a", 1, "sim_us_per_op", 372.9), within},
		{"any failed operation", set("ycsb_a", 1, "failed_op_share", 0), set("ycsb_a", 1, "failed_op_share", 1e-6), outside},
	} {
		rows := agreeRows(c.a, c.b)
		if len(rows) != 1 || rows[0].verdict != c.want {
			t.Errorf("%s: rows %+v, want one row with verdict %q", c.name, rows, c.want)
		}
	}
	var out bytes.Buffer
	if code := printAgree(&out, agreeRows(set("ycsb_a", 1, "ops_per_s", 100), set("ycsb_a", 1, "ops_per_s", 70))); code != 1 {
		t.Errorf("an outside row must exit 1, got %d\n%s", code, out.String())
	}
	short := set("ycsb_a", 1, "ops_per_s", 100)
	short.Results[0].Seconds = 5
	if comparable(short, set("ycsb_a", 1, "ops_per_s", 100)) == nil {
		t.Error("sets of different run lengths were compared")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"tpsta/internal/charlib"
	"tpsta/internal/circuits"
	"tpsta/internal/core"
	"tpsta/internal/netlist"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 2.5}, {90, 3.7}, {100, 4}, {25, 1.75},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// The query loop runs at least minQueries queries so that the reported
// p90 rests on at least ten samples beyond it.
func TestP90SampleCount(t *testing.T) {
	for n := 105; n <= 400; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // distinct, unsorted
		}
		if got := beyond(xs, percentile(xs, 90)); got < 10 {
			t.Fatalf("%d samples: %d beyond p90, want >= 10", n, got)
		}
	}
}

func benchText(t *testing.T, c *netlist.Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := netlist.WriteBench(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHeldOutCircuitsDeterministic(t *testing.T) {
	gen := func(seed int64) [][]byte {
		var out [][]byte
		for _, p := range heldOut(seed, 3) {
			c, err := circuits.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, benchText(t, c))
		}
		return out
	}
	a, b, other := gen(7), gen(7), gen(8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("held-out circuit %d differs between two generations from seed 7", i)
		}
		if bytes.Equal(a[i], other[i]) {
			t.Errorf("held-out circuit %d is the same for seeds 7 and 8", i)
		}
	}
}

// The held-out profiles are the shapes of the built-in ISCAS circuits:
// with the registry's own seeds they rebuild them byte for byte.
func TestProfilesMatchBuiltins(t *testing.T) {
	registrySeeds := map[string]int64{"c432": 11, "c880": 45, "c1908": 37}
	for _, p := range iscasProfiles {
		p.Seed = registrySeeds[p.Name]
		got, err := circuits.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := circuits.Get(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(benchText(t, got), benchText(t, want)) {
			t.Errorf("profile %s does not rebuild the built-in circuit", p.Name)
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var e2e []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !equalDefs(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program reports %v", e2e, endToEnd)
	}
	if !equalDefs(bj.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, program reports %v", bj.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPrintedMetrics runs the output path on a synthetic workload and
// checks the last line: exactly the four keys, and every metric of
// BENCHMARK.json by name with its unit, in both modes.
func TestPrintedMetrics(t *testing.T) {
	bj := readBenchmarkJSON(t)
	fake := func(b *bench) {
		b.setups = []cost{{0.5, 0.9}, {0.4, 0.7}}
		b.ops = []cost{{1, 2}, {2, 3}, {3, 5}}
		b.chars = []cost{{1, 2}, {2, 3}}
		b.queries = []cost{{0.01, 0.02}, {0.02, 0.03}, {0.03, 0.05}}
		b.fitErrs = []float64{0.01}
		b.heaps = []float64{20}
		b.pathErrs = []float64{0.03, 0.05}
		b.charStats = []charlib.CharStats{{Arcs: 2, FitSeconds: 1, SimSeconds: 2, BusySeconds: 3, Utilization: 0.9}}
		b.qstats = []queryStats{{kworstS: 0.01, search: core.SearchStats{SensitizationAttempts: 10}}}
		b.serial = []core.SearchStats{{SensitizationAttempts: 10, Backtracks: 2}}
		b.verifyUS = []float64{5}
		b.sweep = sweepStats{sims: 1, us: 100, allocs: 10}
		b.attempted = 3
		b.op(func() {
			id := b.tr.start(0, "bench.op")
			time.Sleep(time.Millisecond)
			b.tr.end(id)
		})
	}
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		if err := runWorkload(&out, "fake", fake, 1, 1, traced, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		var keys []string
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Errorf("last line keys = %v", keys)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		if traced {
			for _, m := range bj.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range bj.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics printed, BENCHMARK.json has %d", traced, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", traced, name, got, unit)
			}
		}
		if !res.Correct || res.Attempted != 3 {
			t.Errorf("trace=%v: correct=%v attempted=%d, want true and 3", traced, res.Correct, res.Attempted)
		}
	}
}

// TestOpPairs checks that a traced run runs each operation once with and
// once without the recorder, alternating the order, and records spans
// only for the traced twin; an untraced run runs it once.
func TestOpPairs(t *testing.T) {
	b := newBench(1, 1, true)
	var order []bool
	for i := 0; i < 3; i++ {
		b.op(func() {
			order = append(order, b.tr != nil)
			b.tr.end(b.tr.start(0, "bench.op"))
			for c0 := cpuSeconds(); cpuSeconds()-c0 < 1e-3; {
			}
		})
	}
	if want := []bool{true, false, false, true, true, false}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("recorder on per twin = %v, want %v", order, want)
	}
	if b.tr != b.rec || b.pairs != 3 || len(b.rec.spans) != 3 {
		t.Errorf("after 3 pairs: recorder restored %v, pairs %d, spans %d", b.tr == b.rec, b.pairs, len(b.rec.spans))
	}
	if b.tracedS <= 0 || b.plainS <= 0 {
		t.Errorf("paired CPU times %v traced, %v untraced, want both > 0", b.tracedS, b.plainS)
	}

	u := newBench(1, 1, false)
	n := 0
	u.op(func() { n++ })
	if n != 1 || u.pairs != 0 {
		t.Errorf("untraced op ran %d times, %d pairs; want 1 and 0", n, u.pairs)
	}
}

// TestMeter checks that an interval of busy work reads as CPU time and
// wall time.
func TestMeter(t *testing.T) {
	done := meter()
	for c0 := cpuSeconds(); cpuSeconds()-c0 < 5e-3; {
	}
	if c := done(); c.cpu < 5e-3 || c.wall <= 0 {
		t.Errorf("5 ms of busy work read %+v", c)
	}
}

// TestCalibrate checks that the reference job computes the same result
// every pass and that calibrate runs it at most once per refEvery unless
// forced.
func TestCalibrate(t *testing.T) {
	if a, b := refPass(), refPass(); a != b {
		t.Errorf("reference passes computed %v and %v", a, b)
	}
	b := newBench(1, 1, false)
	b.calibrate(true)
	b.calibrate(false)
	if len(b.refs) != 1 {
		t.Errorf("%d passes within refEvery, want 1", len(b.refs))
	}
	b.calibrate(true)
	if len(b.refs) != 2 || !(b.speed() > 0) {
		t.Errorf("after a forced pass: %d passes, speed %v", len(b.refs), b.speed())
	}
}

func TestSelfTimes(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "core.kworst", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "charlib.characterize", Start: 5, End: 9, Split: map[string]float64{"spice": 0.75}},
		{ID: 4, Name: "bench.check", Start: 10, End: 11},
	}}
	layers, total := r.selfTimes("bench.op")
	want := map[string]float64{"bench": 3, "core": 3, "spice": 3, "charlib": 1}
	if total != 10 {
		t.Errorf("total = %v, want 10", total)
	}
	sum := 0.0
	for l, v := range layers {
		sum += v
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("layer %s self time = %v, want %v", l, v, want[l])
		}
	}
	if math.Abs(sum-total) > 1e-12 {
		t.Errorf("self times add up to %v, want the root wall %v", sum, total)
	}
}

func TestExpectedArcs(t *testing.T) {
	if got := expectedArcs(); got != 288 {
		t.Errorf("default library arcs = %d, want 288", got)
	}
}

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section. Each benchmark regenerates its table through the
// same driver cmd/tables uses (internal/exp) and asserts the headline
// property the paper claims for it, so `go test -bench=. -benchmem`
// doubles as a regression harness for the reproduction.
//
// Benchmarks run the quick configuration (reduced grids and budgets);
// the full evaluation is `go run ./cmd/tables`. Characterized libraries
// are cached per technology across iterations, so the first iteration of
// a technology's first benchmark pays its characterization.
package tpsta_test

import (
	"fmt"
	"testing"

	"tpsta/internal/circuits"
	"tpsta/internal/core"
	"tpsta/internal/exp"
	"tpsta/internal/netlist"
	"tpsta/internal/report"
	"tpsta/internal/tech"
)

var quick = exp.Config{Quick: true}

// BenchmarkTable1_AO22Vectors regenerates paper Table 1: the 12
// sensitization vectors of AO22 (3 per input).
func BenchmarkTable1_AO22Vectors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := exp.Table1()
		if len(rows) != 12 {
			b.Fatalf("AO22 vectors = %d, want 12", len(rows))
		}
	}
}

// BenchmarkTable2_OA12Vectors regenerates paper Table 2: OA12's input C
// has three sensitization vectors, A and B one each.
func BenchmarkTable2_OA12Vectors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := exp.Table2()
		if len(rows) != 5 {
			b.Fatalf("OA12 vectors = %d, want 5", len(rows))
		}
	}
}

// BenchmarkTable3_AO22VectorDelay regenerates paper Table 3: AO22
// input-A delay per vector across the three technologies; the falling
// edge must show Case 1 fastest and Case 2 slowest.
func BenchmarkTable3_AO22VectorDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := exp.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.InputRise && !(r.Delays[0] < r.Delays[1]) {
				b.Fatalf("%s: fall Case 1 not fastest", r.Tech)
			}
		}
	}
}

// BenchmarkTable4_OA12VectorDelay regenerates paper Table 4: OA12
// input-C delay per vector; the rising edge must show Case 1 slowest.
func BenchmarkTable4_OA12VectorDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := exp.Table4()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.InputRise && !(r.Delays[2] < r.Delays[0]) {
				b.Fatalf("%s: rise Case 3 not faster than Case 1", r.Tech)
			}
		}
	}
}

// BenchmarkFig23_TransistorAnalysis regenerates the Fig. 2/3 transistor
// ON/OFF/switching panels.
func BenchmarkFig23_TransistorAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig23(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5_SampleCircuit regenerates paper Table 5 on the Fig. 4
// circuit: two vectors for the same critical path, the commercial tool
// reporting only the faster one.
func BenchmarkTable5_SampleCircuit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := exp.Table5(quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) < 2 || rows[0].ReportedByBaseline {
			b.Fatal("worst vector should be missed by the baseline")
		}
	}
}

// BenchmarkTable6_PathIdentification regenerates paper Table 6 (quick
// circuit subset): true-path counts, CPU, and the baseline's verdicts.
func BenchmarkTable6_PathIdentification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := exp.Table6(quick, exp.DefaultTable6Specs(true))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Vectors == 0 {
				b.Fatalf("%s: no vectors", r.Circuit)
			}
		}
	}
}

// BenchmarkTable7_Accuracy130nm regenerates paper Table 7: model error
// against chained transient simulation at 130 nm; the polynomial model
// must beat the LUT baseline on mean path error.
func BenchmarkTable7_Accuracy130nm(b *testing.B) { benchAccuracy(b, exp.Table7) }

// BenchmarkTable8_Accuracy90nm regenerates paper Table 8 (90 nm).
func BenchmarkTable8_Accuracy90nm(b *testing.B) { benchAccuracy(b, exp.Table8) }

// BenchmarkTable9_Accuracy65nm regenerates paper Table 9 (65 nm).
func BenchmarkTable9_Accuracy65nm(b *testing.B) { benchAccuracy(b, exp.Table9) }

func benchAccuracy(b *testing.B, fn func(exp.Config) ([]exp.AccuracyRow, *report.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, _, err := fn(quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.DevMeanPath > r.ComMeanPath {
				b.Logf("%s: dev %.2f%% vs com %.2f%% (paper expects dev ahead on average)",
					r.Circuit, r.DevMeanPath*100, r.ComMeanPath*100)
			}
		}
	}
}

// BenchmarkParallelSearch measures the parallel true-path search
// (Options.Workers) structure-only so the measurement isolates the
// search itself: a balanced multi-output generated circuit, and the
// skewed topology (circuits.Skewed — three deep launch cones, eight
// shallow ones) where sharding by launch point alone strands the pool
// on three shards and only subtree donation balances the load. Every pool
// size must report the same number of paths per circuit — the
// differential harness in internal/core pins full byte-identity; here
// the benchmark only guards against gross divergence while timing.
func BenchmarkParallelSearch(b *testing.B) {
	balanced, err := circuits.Generate(circuits.Profile{
		Name: "benchpar", Inputs: 16, Outputs: 8, Gates: 160, Depth: 9, Seed: 12345})
	if err != nil {
		b.Fatal(err)
	}
	skewed, err := circuits.Get("skew")
	if err != nil {
		b.Fatal(err)
	}
	tc, err := tech.ByName("130nm")
	if err != nil {
		b.Fatal(err)
	}
	for _, tp := range []struct {
		name string
		cir  *netlist.Circuit
	}{{"balanced", balanced}, {"skewed", skewed}} {
		wantPaths := -1
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", tp.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := core.New(tp.cir, tc, nil, core.Options{Workers: workers}).Enumerate()
					if err != nil {
						b.Fatal(err)
					}
					if wantPaths < 0 {
						wantPaths = len(res.Paths)
					}
					if len(res.Paths) != wantPaths {
						b.Fatalf("workers=%d found %d paths, want %d", workers, len(res.Paths), wantPaths)
					}
				}
			})
		}
	}
}

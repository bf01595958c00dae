package main

import (
	"math"
	"runtime"
	"time"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/core"
	"tpsta/internal/spice"
	"tpsta/internal/tech"
)

// metricDef is one reported metric; the lists below must match
// BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_norm_s", "s", "lower"},
	{"char_norm_s", "s", "lower"},
	{"query_norm_p50_ms", "ms", "lower"},
	{"query_norm_p90_ms", "ms", "lower"},
	{"fit_err_max_pct", "%", "lower"},
	{"path_err_pct", "%", "lower"},
	{"heap_mb", "MiB", "lower"},
	{"ok_share", "ratio", "higher"},
}

var perLayer = []metricDef{
	{"bench.ref_ms", "ms", "lower"},
	{"bench.op_cpu_s", "s", "lower"},
	{"bench.op_wall_s", "s", "lower"},
	{"bench.query_wall_p50_ms", "ms", "lower"},
	{"bench.query_wall_p90_ms", "ms", "lower"},
	{"bench.cpu_per_wall", "ratio", "higher"},
	{"go.peak_rss_mb", "MiB", "lower"},
	{"spice.simulate_gate_us", "us", "lower"},
	{"spice.allocs_per_sim", "count", "lower"},
	{"spice.sims", "count", "higher"},
	{"polyfit.fit_us", "us", "lower"},
	{"polyfit.fit_solves", "count", "lower"},
	{"charlib.sim_s", "s", "lower"},
	{"charlib.fit_s", "s", "lower"},
	{"charlib.busy_s", "s", "lower"},
	{"charlib.utilization", "ratio", "higher"},
	{"charlib.slowest_arc_s", "s", "lower"},
	{"circuits.generate_ms", "ms", "lower"},
	{"netlist.load_ms", "ms", "lower"},
	{"report.render_ms", "ms", "lower"},
	{"core.engine_new_ms", "ms", "lower"},
	{"core.kernel_build_ms", "ms", "lower"},
	{"core.arc_queries", "count", "lower"},
	{"core.batch_fill", "ratio", "higher"},
	{"core.kworst_ms", "ms", "lower"},
	{"core.steps", "count", "lower"},
	{"core.steps_per_s", "1/s", "higher"},
	{"core.conflicts", "count", "lower"},
	{"core.conflict_share", "ratio", "lower"},
	{"core.backtracks", "count", "lower"},
	{"core.backtracks_per_step", "ratio", "lower"},
	{"core.justify_aborts", "count", "lower"},
	{"core.paths_recorded", "count", "lower"},
	{"core.paths_deduped", "count", "lower"},
	{"core.allocs_per_query", "count", "lower"},
	{"core.bytes_per_query", "B", "lower"},
	{"go.gc_cycles_per_query", "count", "lower"},
	{"core.pool_utilization", "ratio", "higher"},
	{"core.idle_s", "s", "lower"},
	{"core.balance", "ratio", "lower"},
	{"core.steals", "count", "lower"},
	{"core.donations", "count", "lower"},
	{"sim.verify_us", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// endToEndValues computes every end-to-end metric of a finished run.
// Times are the process's CPU time divided by the run's host speed
// (calibrate.go), not wall time: on a shared host the wall time of
// identical runs spread by up to half its median, and the CPU time by up
// to 41% (README.md, "Why normalized CPU time").
func (b *bench) endToEndValues() map[string]float64 {
	speed := b.speed()
	norm := func(cs []cost) []float64 {
		xs := cpuOf(cs)
		for i := range xs {
			xs[i] /= speed
		}
		return xs
	}
	queries := norm(b.queries)
	return map[string]float64{
		"setup_s":           median(norm(b.setups)),
		"op_norm_s":         mean(norm(b.ops)),
		"char_norm_s":       mean(norm(b.chars)),
		"query_norm_p50_ms": 1e3 * percentile(queries, 50),
		"query_norm_p90_ms": 1e3 * percentile(queries, 90),
		"fit_err_max_pct":   100 * maxOf(b.fitErrs),
		"path_err_pct":      100 * mean(b.pathErrs),
		"heap_mb":           maxOf(b.heaps),
		"ok_share":          float64(b.attempted-b.failed) / float64(max(b.attempted, 1)),
	}
}

// perLayerValues computes every per-layer metric of a finished traced
// run. Core counts are per query at one worker over the workload's fixed
// circuits, so they repeat exactly run to run and across seeds; timings
// are medians over the run's queries, builds or spans.
func (b *bench) perLayerValues() map[string]float64 {
	ms := func(name string) float64 { return 1e3 * median(b.tr.durations(name)) }
	over := func(f func(q queryStats) float64) float64 {
		xs := make([]float64, len(b.qstats))
		for i, q := range b.qstats {
			xs[i] = f(q)
		}
		return median(xs)
	}
	char := func(f func(c charlib.CharStats) float64) float64 {
		xs := make([]float64, len(b.charStats))
		for i, c := range b.charStats {
			xs[i] = f(c)
		}
		return median(xs)
	}
	serial := func(f func(s core.SearchStats) float64) float64 {
		xs := make([]float64, len(b.serial))
		for i, s := range b.serial {
			xs[i] = f(s)
		}
		return mean(xs)
	}
	var steps, kworst float64
	for _, q := range b.qstats {
		steps += float64(q.search.SensitizationAttempts)
		kworst += q.kworstS
	}
	var arcs, fitS float64
	for _, c := range b.charStats {
		arcs += float64(c.Arcs)
		fitS += c.FitSeconds
	}
	stepsSerial := serial(func(s core.SearchStats) float64 { return float64(s.SensitizationAttempts) })
	queryWall := wallOf(b.queries)
	return map[string]float64{
		"bench.ref_ms":            1e3 * median(b.refs),
		"bench.op_cpu_s":          mean(cpuOf(b.ops)),
		"bench.op_wall_s":         mean(wallOf(b.ops)),
		"bench.query_wall_p50_ms": 1e3 * percentile(queryWall, 50),
		"bench.query_wall_p90_ms": 1e3 * percentile(queryWall, 90),
		"bench.cpu_per_wall":      sum(cpuOf(b.ops)) / sum(wallOf(b.ops)),
		"go.peak_rss_mb":          peakRSSMB(),
		"spice.simulate_gate_us":  b.sweep.us,
		"spice.allocs_per_sim":    b.sweep.allocs,
		"spice.sims":              float64(b.sweep.sims),
		// Each arc fits a delay and a slew model.
		"polyfit.fit_us":           1e6 * fitS / (2 * arcs),
		"polyfit.fit_solves":       char(func(c charlib.CharStats) float64 { return float64(c.FitSolves) }),
		"charlib.sim_s":            char(func(c charlib.CharStats) float64 { return c.SimSeconds }),
		"charlib.fit_s":            char(func(c charlib.CharStats) float64 { return c.FitSeconds }),
		"charlib.busy_s":           char(func(c charlib.CharStats) float64 { return c.BusySeconds }),
		"charlib.utilization":      char(func(c charlib.CharStats) float64 { return c.Utilization }),
		"charlib.slowest_arc_s":    char(func(c charlib.CharStats) float64 { return c.SlowestArcSeconds }),
		"circuits.generate_ms":     ms("circuits.generate"),
		"netlist.load_ms":          ms("netlist.load"),
		"report.render_ms":         ms("report.render"),
		"core.engine_new_ms":       ms("core.new"),
		"core.kernel_build_ms":     1e3 * over(func(q queryStats) float64 { return q.kernels.BuildSeconds }),
		"core.arc_queries":         over(func(q queryStats) float64 { return float64(q.kernels.ArcQueries) }),
		"core.batch_fill":          over(func(q queryStats) float64 { return q.kernels.BatchFill }),
		"core.kworst_ms":           1e3 * over(func(q queryStats) float64 { return q.kworstS }),
		"core.steps":               stepsSerial,
		"core.steps_per_s":         steps / kworst,
		"core.conflicts":           serial(func(s core.SearchStats) float64 { return float64(s.Conflicts) }),
		"core.conflict_share":      serial(func(s core.SearchStats) float64 { return float64(s.Conflicts) }) / stepsSerial,
		"core.backtracks":          serial(func(s core.SearchStats) float64 { return float64(s.Backtracks) }),
		"core.backtracks_per_step": serial(func(s core.SearchStats) float64 { return float64(s.Backtracks) }) / stepsSerial,
		"core.justify_aborts":      serial(func(s core.SearchStats) float64 { return float64(s.JustificationAborts) }),
		"core.paths_recorded":      serial(func(s core.SearchStats) float64 { return float64(s.PathsRecorded) }),
		"core.paths_deduped":       serial(func(s core.SearchStats) float64 { return float64(s.PathsDeduped) }),
		"core.allocs_per_query":    over(func(q queryStats) float64 { return float64(q.mallocs) }),
		"core.bytes_per_query":     over(func(q queryStats) float64 { return float64(q.bytes) }),
		"go.gc_cycles_per_query":   over(func(q queryStats) float64 { return float64(q.gcs) }),
		"core.pool_utilization":    over(func(q queryStats) float64 { return q.pool.Utilization }),
		"core.idle_s":              over(func(q queryStats) float64 { return sum(q.pool.IdleSeconds) }),
		"core.balance":             over(func(q queryStats) float64 { return q.pool.Balance }),
		"core.steals":              over(func(q queryStats) float64 { return float64(q.pool.ShardSteals + q.pool.SubtreeSteals) }),
		"core.donations":           over(func(q queryStats) float64 { return float64(q.pool.Donations) }),
		"sim.verify_us":            median(b.verifyUS),
		"trace.overhead_pct":       100 * (b.tracedS - b.plainS) / b.plainS,
	}
}

// sweepStats is the single-threaded SimulateGate sweep of a traced run.
type sweepStats struct {
	sims   int
	us     float64 // mean microseconds per simulation
	allocs float64 // heap allocations per simulation
}

// sweepTarget bounds the sweep to about 150 simulations (under a second
// at 130 nm) by taking every n-th arc of the build's job list.
const sweepTarget = 150

// sweepIfTraced simulates a stride of one build's job list — every cell,
// pin, vector and edge at each nominal load and slew point of lib's grid
// — on one goroutine, timing and counting allocations per simulation.
func (b *bench) sweepIfTraced(tc *tech.Tech, lib *charlib.Library) {
	if b.tr == nil || lib == nil {
		return
	}
	type job struct {
		c      *cell.Cell
		vec    cell.Vector
		rising bool
	}
	var jobs []job
	for _, c := range cell.Default().Cells() {
		for _, pin := range c.Inputs {
			for _, vec := range c.Vectors(pin) {
				jobs = append(jobs, job{c, vec, true}, job{c, vec, false})
			}
		}
	}
	points := len(lib.Grid.Fo) * len(lib.Grid.Tin)
	stride := max(1, len(jobs)*points/sweepTarget)
	s := spice.New(tc)
	b.try("spice sweep", func() error {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id := b.tr.start(0, "bench.sweep")
		defer b.tr.end(id)
		sid := b.tr.start(id, "spice.simulate_gate")
		defer b.tr.end(sid)
		t0 := time.Now()
		sims := 0
		for i := 0; i < len(jobs); i += stride {
			j := jobs[i]
			for _, fo := range lib.Grid.Fo {
				for _, tin := range lib.Grid.Tin {
					if _, err := s.SimulateGate(j.c, j.vec, j.rising, tin, fo*lib.CinRef[j.c.Name]); err != nil {
						return err
					}
					sims++
				}
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		b.sweep = sweepStats{
			sims:   sims,
			us:     float64(d.Nanoseconds()) / 1e3 / float64(sims),
			allocs: float64(m1.Mallocs-m0.Mallocs) / float64(sims),
		}
		return nil
	})
}

// finite replaces a metric that had no samples with 0; the caller counts
// it as a failure.
func finite(v float64) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}

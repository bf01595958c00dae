package core

import (
	"tpsta/internal/obs"
)

// Metrics is the opt-in hot-path latency bundle of an engine
// (Options.Metrics). The histograms are embedded by value — the whole
// struct is pointer-free and safe to publish by address — and each
// observation is two atomic adds, so enabling metrics costs a clock
// read per instrumented site and nothing else. A nil Options.Metrics
// keeps every site branch-only: no clock reads, no atomics, no
// allocations (see TestSearchStepDisabledZeroAlloc).
//
// One Metrics value may be shared across runs and across the workers of
// a parallel run; counts accumulate for the process lifetime, which is
// exactly what the OpenMetrics exposition wants.
type Metrics struct {
	// StepNs is the latency of one sensitization decision application
	// in withVector: budget/accounting, constraint save, side-value
	// assertion and forward implication — the subtree recursion under
	// the decision is excluded.
	StepNs obs.Histogram
	// StealResumeNs is the latency from a subtree donation (maybeDonate
	// stamping the resume point) to the moment a thief starts replaying
	// it (resumeUnit) — the scheduler's hand-off cost.
	StealResumeNs obs.Histogram
	// EmitNs is the cost of materializing one recorded (non-duplicate)
	// path: cube construction, TruePath allocation and the polynomial
	// delay evaluation for both launch edges.
	EmitNs obs.Histogram
	// KernelBuildNs is the one-time cost of each run-specialized
	// delay-kernel table build (kernels.go).
	KernelBuildNs obs.Histogram
	// NogoodStoreNs is the cost of recording one learned nogood: the
	// rewind, the recording re-run of the dead assertion, and the store
	// insert (nogood.go, learnDecision).
	NogoodStoreNs obs.Histogram
	// KernelBatchFill records the lane count of each batched arc-delay
	// evaluation (ArcDelaysInto) — the path length scored per query.
	// Not a latency: the histogram's log2 buckets hold arc counts, so
	// the distribution shows how full the BatchWidth-lane rounds run.
	KernelBatchFill obs.Histogram
	// CornerBuildNs is the cost of respecializing a kernel table at an
	// additional operating point from an existing build
	// (newCornerTable): one fused pool RespecBatch pass — the cheap
	// per-corner share of a multi-corner sweep's build.
	CornerBuildNs obs.Histogram
	// CornerSearchNs is the wall-clock search time attributed to one
	// corner of a multi-corner run: serial sweeps observe each corner's
	// full search, parallel sweeps the per-corner busy time summed over
	// workers.
	CornerSearchNs obs.Histogram
}

// Instrument names of the engine's OpenMetrics exposition: dotted,
// package-prefixed compile-time constants per the obscheck discipline.
// promName maps e.g. metStepNs to tpsta_core_step_ns.
const (
	metSteps         = "core.sensitization_attempts"
	metConflicts     = "core.conflicts"
	metBacktracks    = "core.backtracks"
	metJustAborts    = "core.justification_aborts"
	metQuotaExhausts = "core.input_quota_exhaustions"
	metRecorded      = "core.paths_recorded"
	metDeduped       = "core.paths_deduped"
	metWorkers       = "core.workers"
	metShards        = "core.shards"
	metUnits         = "core.units"
	metShardSteals   = "core.shard_steals"
	metSubtreeSteals = "core.subtree_steals"
	metDonations     = "core.donations"
	metStepNs        = "core.step_ns"
	metStealResume   = "core.steal_resume_ns"
	metEmitNs        = "core.emit_ns"
	metKernelBuild   = "core.kernel_build_ns"
	metNogoodLearned = "core.nogood_learned"
	metNogoodHits    = "core.nogood_hits"
	metNogoodStoreNs = "core.nogood_store_ns"
	metKernelBatch   = "core.kernel_batch_fill"
	metCornerBuild   = "core.corner_build_ns"
	metCornerSearch  = "core.corner_search_ns"
)

// metricsHelpText documents each instrument for the exposition's
// # HELP lines.
var metricsHelpText = map[string]string{
	metSteps:         "sensitization decision applications of the engine's most recent search",
	metConflicts:     "launch-edge scenarios killed by forward implication",
	metBacktracks:    "justification alternatives undone while resolving obligations",
	metJustAborts:    "completed paths dropped on justification budget exhaustion",
	metQuotaExhausts: "launching inputs whose per-input step quota ran out",
	metRecorded:      "distinct true-path variants recorded",
	metDeduped:       "justified variants dropped as duplicates",
	metWorkers:       "worker pool size of the most recent parallel run",
	metShards:        "root work units of the most recent parallel run",
	metUnits:         "total scheduled work units (shards plus donated subtrees)",
	metShardSteals:   "whole untouched shards taken from a peer's deque",
	metSubtreeSteals: "donated subtrees taken from a peer's deque",
	metDonations:     "DFS subtrees busy searchers handed to the pool",
	metStepNs:        "latency of one sensitization decision application",
	metStealResume:   "latency from subtree donation to resume on the thief",
	metEmitNs:        "cost of materializing one recorded path (cube, delays)",
	metKernelBuild:   "run-specialized delay-kernel table build time",
	metNogoodLearned: "nogoods learned from dead sensitization decisions",
	metNogoodHits:    "decisions pruned by a learned nogood before being charged a step",
	metNogoodStoreNs: "cost of recording one learned nogood (rewind, re-run, insert)",
	metKernelBatch:   "lanes per batched arc-delay evaluation (path length per query)",
	metCornerBuild:   "kernel-table respecialization time per additional operating point",
	metCornerSearch:  "per-corner search time of a multi-corner sweep",
}

// MetricsSnapshot maps the engine's instrumentation onto an
// obs.Snapshot for the OpenMetrics exposition: the search counters of
// the most recent run, the pool shape of the most recent parallel run
// as gauges, and — when Options.Metrics is set — the process-lifetime
// latency histograms. Safe to call concurrently with a running search
// (the snapshot fields are published under the engine's stats lock; the
// histograms are atomic).
func (e *Engine) MetricsSnapshot() obs.Snapshot {
	st, par := e.snapStats()
	snap := obs.Snapshot{
		Counters: map[string]int64{
			metSteps:         st.SensitizationAttempts,
			metConflicts:     st.Conflicts,
			metBacktracks:    st.Backtracks,
			metJustAborts:    st.JustificationAborts,
			metQuotaExhausts: st.InputQuotaExhaustions,
			metRecorded:      st.PathsRecorded,
			metDeduped:       st.PathsDeduped,
		},
	}
	if par.Workers > 0 {
		snap.Gauges = map[string]int64{
			metWorkers: int64(par.Workers),
			metShards:  int64(par.Shards),
			metUnits:   par.Units,
		}
		snap.Counters[metShardSteals] = par.ShardSteals
		snap.Counters[metSubtreeSteals] = par.SubtreeSteals
		snap.Counters[metDonations] = par.Donations
	}
	if e.Opts.Learning {
		ls := e.LearnStats()
		snap.Counters[metNogoodLearned] = ls.Learned
		snap.Counters[metNogoodHits] = ls.Hits
	}
	if m := e.Opts.Metrics; m != nil {
		snap.Histograms = map[string]obs.HistogramStat{
			metStepNs:        m.StepNs.Stat(),
			metStealResume:   m.StealResumeNs.Stat(),
			metEmitNs:        m.EmitNs.Stat(),
			metKernelBuild:   m.KernelBuildNs.Stat(),
			metNogoodStoreNs: m.NogoodStoreNs.Stat(),
			metKernelBatch:   m.KernelBatchFill.Stat(),
			metCornerBuild:   m.CornerBuildNs.Stat(),
			metCornerSearch:  m.CornerSearchNs.Stat(),
		}
	}
	return snap
}

// RegisterMetrics exposes the engine on the process /metrics endpoint
// (obs.MetricsHandler / obs.ServeMetrics) under the given source name,
// with help text for every instrument. Register with a nil source name
// mapping is not supported here; call obs.RegisterMetrics(name, nil) to
// unregister.
func (e *Engine) RegisterMetrics(name string) {
	for key, help := range metricsHelpText {
		obs.MetricHelp(key, help)
	}
	obs.RegisterMetrics(name, e.MetricsSnapshot)
}

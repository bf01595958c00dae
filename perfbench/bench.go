package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/circuits"
	"tpsta/internal/core"
	"tpsta/internal/netlist"
	"tpsta/internal/tech"
)

// Settings shared by every workload. k, maxSteps and the fit target are
// the tpsta CLI and charlib defaults.
const (
	k         = 10
	maxSteps  = 2_000_000
	fitTarget = 0.02
	techName  = "130nm"
)

// bench holds one run's configuration and everything it measured.
type bench struct {
	seed    int64
	seconds float64
	nproc   int
	tr      *recorder // nil unless --trace 1, and while op runs an untraced twin
	rec     *recorder // the traced run's recorder

	// CPU seconds of the operations op ran with and without the recorder,
	// for trace.overhead_pct, and the number of pairs.
	tracedS, plainS float64
	pairs           int

	attempted, failed int
	failures          []string

	setups   []cost    // per set-up
	ops      []cost    // per timed operation
	chars    []cost    // per library characterization
	queries  []cost    // per true-path query (core.New + KWorst)
	fitErrs  []float64 // worst polynomial fit error of each library
	pathErrs []float64 // per-path relative model error against spice
	heaps    []float64 // live heap in MiB after each reference search
	refs     []float64 // CPU seconds of each reference pass
	lastRef  time.Time

	charStats []charlib.CharStats
	qstats    []queryStats // per timed query
	serial    []core.SearchStats
	verifyUS  []float64
	sweep     sweepStats
}

// queryStats are the snapshots one query leaves behind.
type queryStats struct {
	search  core.SearchStats
	kernels core.KernelStats
	pool    core.ParallelStats
	kworstS float64
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func newBench(seed int64, seconds float64, traced bool) *bench {
	b := &bench{seed: seed, seconds: seconds, nproc: runtime.NumCPU()}
	if traced {
		b.rec = newRecorder()
		b.tr = b.rec
	}
	return b
}

// op runs one timed operation. A traced run runs it twice, once with the
// recorder and once without, alternating which goes first so that host
// drift falls on both alike: trace.overhead_pct compares the two CPU
// times, and the spans cover only the traced twin.
func (b *bench) op(f func()) {
	b.calibrate(false)
	if b.rec == nil {
		f()
		return
	}
	defer func() { b.tr = b.rec }()
	for i := 0; i < 2; i++ {
		traced := (i+b.pairs)%2 == 0
		b.tr = nil
		if traced {
			b.tr = b.rec
		}
		done := meter()
		f()
		if c := done(); traced {
			b.tracedS += c.cpu
		} else {
			b.plainS += c.cpu
		}
	}
	b.pairs++
}

// try runs one operation, counting it as attempted, and as failed when it
// returns an error or panics.
func (b *bench) try(what string, f func() error) bool {
	b.attempted++
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return f()
	}()
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, what+": "+err.Error())
		}
		return false
	}
	return true
}

// timed runs f as the root span name and returns its cost.
func (b *bench) timed(name string, f func(parent int) error) (cost, error) {
	id := b.tr.start(0, name)
	done := meter()
	err := f(id)
	c := done()
	b.tr.end(id)
	return c, err
}

// characterize builds one library and, when record is set, records its
// build time and CharStats. checkLibrary validates recorded builds after
// the timed interval; warm-up builds are neither recorded nor checked.
func (b *bench) characterize(parent int, tc *tech.Tech, grid charlib.Grid, opts charlib.Options, record bool) (*charlib.Library, error) {
	id := b.tr.start(parent, "charlib.characterize")
	done := meter()
	lib, err := charlib.Characterize(tc, cell.Default(), grid, opts)
	c := done()
	b.tr.end(id)
	if err != nil {
		return nil, err
	}
	st := lib.Stats
	if st.BusySeconds > 0 {
		b.tr.split(id, map[string]float64{
			"spice":   st.SimSeconds / st.BusySeconds,
			"polyfit": st.FitSeconds / st.BusySeconds,
		})
	}
	if record {
		b.chars = append(b.chars, c)
		b.charStats = append(b.charStats, st)
	}
	return lib, nil
}

// checkLibrary requires a recorded build to be a complete library of the
// default cells within the fit target. It runs as a "bench.check" root,
// off the timed path.
func (b *bench) checkLibrary(tc *tech.Tech, lib *charlib.Library) error {
	_, err := b.timed("bench.check", func(int) error {
		if want := expectedArcs(); len(lib.Poly) != want {
			return fmt.Errorf("%s library has %d of %d arcs", tc.Name, len(lib.Poly), want)
		}
		key, worst := lib.WorstFitErr()
		b.fitErrs = append(b.fitErrs, worst)
		if worst > fitTarget {
			return fmt.Errorf("%s arc %s fit error %.4f over target %.2f", tc.Name, key, worst, fitTarget)
		}
		return nil
	})
	return err
}

// expectedArcs counts the timing arcs of the default cells: one per pin,
// sensitization vector and edge.
func expectedArcs() int {
	n := 0
	for _, c := range cell.Default().Cells() {
		for _, pin := range c.Inputs {
			n += 2 * len(c.Vectors(pin))
		}
	}
	return n
}

// load fetches a built-in circuit the way tpsta's load phase does.
func (b *bench) load(parent int, name string) (*netlist.Circuit, error) {
	id := b.tr.start(parent, "netlist.load")
	defer b.tr.end(id)
	return circuits.Get(name)
}

func (b *bench) generate(parent int, p circuits.Profile) (*netlist.Circuit, error) {
	id := b.tr.start(parent, "circuits.generate")
	defer b.tr.end(id)
	return circuits.Generate(p)
}

// search runs one true-path query as tpsta does: core.New with a non-nil
// Tech and no Tracer or Metrics, then KWorst(k).
func (b *bench) search(parent int, cir *netlist.Circuit, tc *tech.Tech, lib *charlib.Library, workers int) (*core.Engine, *core.Result, time.Duration, error) {
	id := b.tr.start(parent, "core.new")
	eng := core.New(cir, tc, lib, core.Options{Workers: workers, MaxSteps: maxSteps})
	b.tr.end(id)
	id = b.tr.start(parent, "core.kworst")
	t0 := time.Now()
	res, err := eng.KWorst(k)
	d := time.Since(t0)
	b.tr.end(id)
	if err != nil {
		return nil, nil, 0, err
	}
	if res.Truncated {
		return nil, nil, 0, fmt.Errorf("%s: search truncated (%s)", cir.Name, res.Truncation)
	}
	return eng, res, d, nil
}

// query times one search at the given workers as a root span named root and
// records its latency. While traced it also keeps the engine's counters
// and reads the allocation and GC counters around the query.
func (b *bench) query(root string, cir *netlist.Circuit, tc *tech.Tech, lib *charlib.Library, workers int) (*core.Result, error) {
	var m0 runtime.MemStats
	if b.tr != nil {
		runtime.ReadMemStats(&m0)
	}
	var eng *core.Engine
	var res *core.Result
	var kw time.Duration
	c, err := b.timed(root, func(id int) (err error) {
		eng, res, kw, err = b.search(id, cir, tc, lib, workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	b.queries = append(b.queries, c)
	if b.tr != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		b.qstats = append(b.qstats, queryStats{
			search: eng.Stats(), kernels: eng.KernelStats(), pool: eng.ParallelStats(), kworstS: kw.Seconds(),
			mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc, gcs: m1.NumGC - m0.NumGC,
		})
	}
	return res, nil
}

// reference runs the search serially and at nproc workers, requires the
// two results to be byte-identical (the engine's contract for untruncated
// searches), verifies every reported path and returns the parallel
// engine and result. When fixed is set the serial counters are kept for
// the per-layer report; held-out circuits vary with the seed and are only
// checked.
func (b *bench) reference(parent int, cir *netlist.Circuit, tc *tech.Tech, lib *charlib.Library, fixed bool) (*core.Engine, *core.Result, error) {
	serEng, ser, _, err := b.search(parent, cir, tc, lib, 1)
	if err != nil {
		return nil, nil, err
	}
	eng, par, _, err := b.search(parent, cir, tc, lib, b.nproc)
	if err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(fingerprint(ser), fingerprint(par)) {
		return nil, nil, fmt.Errorf("%s: %d-worker result differs from the serial result", cir.Name, b.nproc)
	}
	if len(par.Paths) == 0 {
		return nil, nil, fmt.Errorf("%s: no true paths reported", cir.Name)
	}
	if err := b.verify(parent, cir, par); err != nil {
		return nil, nil, err
	}
	if fixed {
		b.serial = append(b.serial, serEng.Stats())
	}
	return eng, par, nil
}

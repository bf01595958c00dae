package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"tpsta/internal/charlib"
	"tpsta/internal/core"
	"tpsta/internal/netlist"
	"tpsta/internal/report"
	"tpsta/internal/sim"
	"tpsta/internal/spice"
	"tpsta/internal/tech"
)

// fingerprint serializes everything a query reports — path nodes, arcs
// with their vectors, input cubes and the exact delay bits — so that two
// results compare byte for byte.
func fingerprint(res *core.Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "courses=%d multi=%d truncated=%v\n", res.Courses, res.MultiVectorCourses, res.Truncated)
	for _, p := range res.Paths {
		fmt.Fprintf(&b, "%s %v rise=%v/%x fall=%v/%x\n", p.Start, p.Nodes,
			p.RiseOK, math.Float64bits(p.RiseDelay), p.FallOK, math.Float64bits(p.FallDelay))
		for _, a := range p.Arcs {
			fmt.Fprintf(&b, "  %s %s %s\n", a.Gate.Out.Name, a.Pin, a.Vec.Key())
		}
		fmt.Fprintf(&b, "  %s\n", cubeString(p))
	}
	return b.Bytes()
}

// launchRising is the launch edge a path's reported worst delay refers to.
func launchRising(p *core.TruePath) bool {
	return p.RiseOK && !(p.FallOK && p.FallDelay > p.RiseDelay)
}

// verify checks every reported path by logic simulation: the launched
// transition must propagate along exactly the path under its cube, for
// each edge the path claims.
func (b *bench) verify(parent int, cir *netlist.Circuit, res *core.Result) error {
	id := b.tr.start(parent, "sim.verify")
	defer b.tr.end(id)
	for _, p := range res.Paths {
		for _, rising := range []bool{true, false} {
			if (rising && !p.RiseOK) || (!rising && !p.FallOK) {
				continue
			}
			t0 := time.Now()
			err := sim.Verify(cir, p.Nodes, p.Start, rising, p.Cube)
			b.verifyUS = append(b.verifyUS, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				return fmt.Errorf("%s path %s fails verification: %w", cir.Name, p, err)
			}
		}
	}
	return nil
}

// pathErrors measures the model path delay (Engine.ArcDelays) of every
// reported path against chained transient simulation of the same arcs,
// as the paper's Tables 7–9 do, and records the relative errors.
func (b *bench) pathErrors(parent int, eng *core.Engine, res *core.Result) error {
	id := b.tr.start(parent, "spice.simulate_path")
	defer b.tr.end(id)
	s := spice.New(eng.Tech)
	for _, p := range res.Paths {
		rising := launchRising(p)
		stages := make([]spice.PathStage, len(p.Arcs))
		for i, a := range p.Arcs {
			stages[i] = spice.PathStage{Cell: a.Gate.Cell, Vec: a.Vec, Load: eng.Circuit.LoadCap(a.Gate.Out, eng.Tech)}
		}
		ref, err := s.SimulatePath(stages, rising, eng.Opts.InputSlew)
		if err != nil {
			return fmt.Errorf("%s path %s: %w", eng.Circuit.Name, p, err)
		}
		model, err := eng.ArcDelays(p.Arcs, rising)
		if err != nil {
			return err
		}
		total := 0.0
		for _, d := range model {
			total += d
		}
		if ref.Total <= 0 {
			return fmt.Errorf("%s path %s: simulated delay %g", eng.Circuit.Name, p, ref.Total)
		}
		b.pathErrs = append(b.pathErrs, math.Abs(total-ref.Total)/ref.Total)
	}
	return nil
}

// render writes the K-worst table exactly as tpsta prints it.
func (b *bench) render(parent int, w io.Writer, res *core.Result) error {
	id := b.tr.start(parent, "report.render")
	defer b.tr.end(id)
	tb := report.New(fmt.Sprintf("%d worst true paths", len(res.Paths)),
		"#", "delay(ps)", "edge", "path [cell.pin#case]", "input cube")
	for i, p := range res.Paths {
		edge := "rise"
		if p.FallDelay >= p.RiseDelay {
			edge = "fall"
		}
		tb.Row(i+1, report.Ps(p.WorstDelay()), edge, p.String(), cubeString(p))
	}
	return tb.Render(w)
}

// cubeString matches tpsta's input-cube column.
func cubeString(p *core.TruePath) string {
	names := make([]string, 0, len(p.Cube))
	for n := range p.Cube {
		names = append(names, n)
	}
	sort.Strings(names)
	out := p.Start + "=T"
	for _, n := range names {
		out += fmt.Sprintf(" %s=%s", n, p.Cube[n])
	}
	return out
}

// validate is the off-path check every workload makes on a library it
// built or loaded: a reference search of cir (serial against nproc
// workers, every path verified), the model error of its paths against
// spice, and repeats timed queries of the same request. While the
// library, the circuit and the search's engine and result are held, it
// records the live heap. It returns the fingerprint a repeated query must
// reproduce.
func (b *bench) validate(cir *netlist.Circuit, tc *tech.Tech, lib *charlib.Library, repeats int) []byte {
	var want []byte
	ok := b.try("reference "+cir.Name+" "+tc.Name, func() error {
		_, err := b.timed("bench.check", func(id int) error {
			eng, res, err := b.reference(id, cir, tc, lib, true)
			if err != nil {
				return err
			}
			b.heaps = append(b.heaps, liveHeapMB())
			want = fingerprint(res)
			return b.pathErrors(id, eng, res)
		})
		return err
	})
	if !ok {
		return nil
	}
	for i := 0; i < repeats; i++ {
		b.checkedQuery("bench.check", cir, tc, lib, 1, want)
	}
	return want
}

// checkedQuery times one query and requires its result to be the
// reference result, whose paths were verified.
func (b *bench) checkedQuery(root string, cir *netlist.Circuit, tc *tech.Tech, lib *charlib.Library, workers int, want []byte) {
	b.calibrate(false)
	b.try("query "+cir.Name, func() error {
		res, err := b.query(root, cir, tc, lib, workers)
		if err != nil {
			return err
		}
		_, err = b.timed("bench.check", func(id int) error {
			if err := b.render(id, io.Discard, res); err != nil {
				return err
			}
			if !bytes.Equal(fingerprint(res), want) {
				return fmt.Errorf("%s: result differs from the verified reference", cir.Name)
			}
			return nil
		})
		return err
	})
}

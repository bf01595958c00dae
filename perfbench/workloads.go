package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"tpsta/internal/charlib"
	"tpsta/internal/circuits"
	"tpsta/internal/netlist"
	"tpsta/internal/tech"
)

// workloads maps each workload name to the function that runs it. Why each
// exists is recorded in BENCHMARK.json and README.md.
var workloads = map[string]func(*bench){
	"flow":  (*bench).flowWorkload,
	"query": (*bench).queryWorkload,
}

// iscasProfiles are the published ISCAS-85 shapes the built-in c432,
// c880 and c1908 are generated from; held-out circuits reuse them with
// seeds derived from the workload seed.
var iscasProfiles = []circuits.Profile{
	{Name: "c432", Inputs: 36, Outputs: 7, Gates: 160, Depth: 17},
	{Name: "c880", Inputs: 60, Outputs: 26, Gates: 383, Depth: 24},
	{Name: "c1908", Inputs: 33, Outputs: 25, Gates: 880, Depth: 26},
}

// minQueries is the fewest timed queries a run makes, so that the
// reported p90 has at least ten samples beyond it.
const minQueries = 105

// checkQueries is the number of c432 validation queries flow makes off
// the timed path, for its query_norm_p50_ms and query_norm_p90_ms. A
// c432 query takes about 30 ms, and the p90 of 105 of them, made within
// three seconds, spread by 13% across ten runs while their p50 spread by
// 2%; 315 queries, made over about ten seconds, brought the p90 to 5%.
const checkQueries = 3 * minQueries

// heldOut derives n circuit profiles from the workload seed, cycling over
// iscasProfiles. The same seed always yields the same profiles.
func heldOut(seed int64, n int) []circuits.Profile {
	rng := rand.New(rand.NewSource(seed))
	out := make([]circuits.Profile, n)
	for i := range out {
		p := iscasProfiles[i%len(iscasProfiles)]
		p.Seed = rng.Int63n(1 << 31)
		p.Name = fmt.Sprintf("%s_s%d", p.Name, p.Seed)
		out[i] = p
	}
	return out
}

// setup runs f n times as "bench.setup" roots and records each duration.
// It reports false when a set-up failed; the run then stops.
func (b *bench) setup(n int, f func(parent int) error) bool {
	for i := 0; i < n; i++ {
		b.calibrate(false)
		ok := b.try("setup", func() error {
			c, err := b.timed("bench.setup", f)
			b.setups = append(b.setups, c)
			return err
		})
		if !ok {
			return false
		}
	}
	return true
}

// generateAll builds the held-out circuits.
func (b *bench) generateAll(parent int, ps []circuits.Profile) ([]*netlist.Circuit, error) {
	out := make([]*netlist.Circuit, len(ps))
	for i, p := range ps {
		c, err := b.generate(parent, p)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// checkHeldOut runs the serial-vs-parallel identity check and path
// verification on each held-out circuit.
func (b *bench) checkHeldOut(cirs []*netlist.Circuit, tc *tech.Tech, lib *charlib.Library) {
	for _, c := range cirs {
		b.try("held-out "+c.Name, func() error {
			_, err := b.timed("bench.check", func(id int) error {
				_, _, err := b.reference(id, c, tc, lib, false)
				return err
			})
			return err
		})
	}
}

// warmUp characterizes three small cells so lazy runtime set-up (heap
// growth, worker stacks) is paid before the first timed operation.
func (b *bench) warmUp(parent int, tc *tech.Tech, grid charlib.Grid) error {
	_, err := b.characterize(parent, tc, grid, charlib.Options{Cells: []string{"INV", "NAND2", "NOR2"}, Workers: b.nproc}, false)
	return err
}

// flowWorkload times whole tpsta sessions — `tpsta -circuit c432 -k 10`
// at CLI defaults — making the same public calls in the same order as
// cmd/tpsta, from circuit load to the rendered report. Every session
// repeats the identical request.
func (b *bench) flowWorkload() {
	var held []*netlist.Circuit
	if !b.setup(7, func(id int) error {
		tc, err := tech.ByName(techName)
		if err != nil {
			return err
		}
		if err := b.warmUp(id, tc, charlib.NominalGrid()); err != nil {
			return err
		}
		held, err = b.generateAll(id, heldOut(b.seed, 1))
		return err
	}) {
		return
	}

	var tc *tech.Tech
	var cir *netlist.Circuit
	var lib *charlib.Library
	var report bytes.Buffer
	start := time.Now()
	for {
		var d cost
		b.op(func() {
			b.try("session", func() error {
				report.Reset()
				var err error
				d, err = b.timed("bench.op", func(id int) error {
					if tc, err = tech.ByName(techName); err != nil {
						return err
					}
					if cir, err = b.load(id, "c432"); err != nil {
						return err
					}
					if _, err := cir.Stats(); err != nil {
						return err
					}
					if lib, err = b.characterize(id, tc, charlib.NominalGrid(), charlib.Options{}, true); err != nil {
						return err
					}
					_, res, _, err := b.search(id, cir, tc, lib, 0)
					if err != nil {
						return err
					}
					return b.render(id, &report, res)
				})
				if err != nil {
					return err
				}
				b.ops = append(b.ops, d)
				if report.Len() == 0 {
					return fmt.Errorf("empty report")
				}
				if err := b.checkLibrary(tc, lib); err != nil {
					lib = nil
					return err
				}
				return nil
			})
		})
		if d.wall == 0 || time.Since(start).Seconds()+d.wall > b.seconds {
			break
		}
	}
	if lib == nil {
		return
	}
	b.validate(cir, tc, lib, checkQueries)
	b.checkHeldOut(held, tc, lib)
	b.sweepIfTraced(tc, lib)
}

// queryWorkload builds one quick-grid 130 nm library in set-up, then runs
// a closed loop of true-path queries over the built-in c432, c880 and
// c1908. Each round of seven queries asks c432 twice, c880 four times and
// c1908 once, in a seed-shuffled order: sorted by latency the three
// circuits form clusters, and these shares put the median well inside the
// c880 cluster and the p90 inside the c1908 cluster, away from the
// boundaries and the clusters' own tails.
func (b *bench) queryWorkload() {
	var tc *tech.Tech
	var lib *charlib.Library
	var built []*charlib.Library
	var fixed, held []*netlist.Circuit
	if !b.setup(2, func(id int) error {
		var err error
		if tc, err = tech.ByName(techName); err != nil {
			return err
		}
		if lib, err = b.characterize(id, tc, charlib.TestGrid(), charlib.Options{Workers: b.nproc}, true); err != nil {
			return err
		}
		built = append(built, lib)
		fixed = fixed[:0]
		for _, n := range []string{"c432", "c880", "c1908"} {
			c, err := b.load(id, n)
			if err != nil {
				return err
			}
			fixed = append(fixed, c)
		}
		held, err = b.generateAll(id, heldOut(b.seed, 3))
		return err
	}) {
		return
	}

	for _, l := range built {
		if !b.try("library "+tc.Name, func() error { return b.checkLibrary(tc, l) }) {
			return
		}
	}
	built = nil // only lib stays live, as in a program that built it once

	want := map[*netlist.Circuit][]byte{}
	for _, c := range fixed {
		if w := b.validate(c, tc, lib, 0); w != nil {
			want[c] = w
		}
	}
	b.checkHeldOut(held, tc, lib)
	if len(want) != len(fixed) {
		return
	}

	round := []*netlist.Circuit{fixed[0], fixed[0], fixed[1], fixed[1], fixed[1], fixed[1], fixed[2]}
	perOp := 1
	if b.rec != nil {
		perOp = 2 // a traced run makes each query traced and untraced
	}
	rng := rand.New(rand.NewSource(b.seed))
	start := time.Now()
	for n := 0; n < minQueries || time.Since(start).Seconds() < b.seconds; n += perOp * len(round) {
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, c := range round {
			b.op(func() { b.checkedQuery("bench.op", c, tc, lib, b.nproc, want[c]) })
		}
	}
	b.ops = b.queries
	b.sweepIfTraced(tc, lib)
}

package core

import (
	"fmt"
	"math"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/netlist"
	"tpsta/internal/polyfit"
)

// Lane-level tests of the struct-of-arrays kernel path: path lengths
// around the BatchWidth boundaries, an uncharacterized hole mid-path,
// and the zero-allocation contract across several batch rounds. The
// oracle is legacyArcDelays (kernels_test.go): string-keyed
// charlib.GateDelay on the full 4-variable models.

// invChain builds a chain of n INV gates — the one characterized cell
// with a single arc — so paths of every length are available for the
// tail-lane sweep.
func invChain(t testing.TB, n int) *netlist.Circuit {
	t.Helper()
	lib := cell.Default()
	c := netlist.New("invchain")
	if _, err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	prev := "a"
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("n%d", i+1)
		if _, err := c.AddGate(lib, "INV", out, map[string]string{"A": prev}); err != nil {
			t.Fatal(err)
		}
		prev = out
	}
	c.MarkOutput(prev)
	return c
}

// invChainArcs enumerates an n-INV chain and returns its single path.
func invChainArcs(t testing.TB, n int) (*Engine, []Arc) {
	t.Helper()
	e := New(invChain(t, n), t130(t), charLib130(t), Options{})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	arcs := res.Paths[0].Arcs
	if len(arcs) != n {
		t.Fatalf("chain path has %d arcs, want %d", len(arcs), n)
	}
	return e, arcs
}

// TestBatchedTailLanes sweeps every path length from one arc through
// several full BatchWidth rounds plus every partial-tail residue,
// checking the batched delays bit for bit against the string-keyed
// charlib oracle.
func TestBatchedTailLanes(t *testing.T) {
	n := 2*polyfit.BatchWidth + polyfit.BatchWidth/2 // 20 arcs: full rounds + a partial tail
	e, arcs := invChainArcs(t, n)
	for pre := 1; pre <= n; pre++ {
		got, err := e.ArcDelays(arcs[:pre], true)
		if err != nil {
			t.Fatalf("prefix %d: %v", pre, err)
		}
		want, err := legacyArcDelays(e, arcs[:pre], true)
		if err != nil {
			t.Fatalf("prefix %d oracle: %v", pre, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("prefix %d arc %d: batched %v vs charlib %v", pre, i, got[i], want[i])
			}
		}
	}
}

// invChainWithAnd builds an INV chain with one AND2 spliced in at
// position at (side input b held non-controlling). Gates of the same
// cell share one kernel slot block, so the AND2 — the only one of its
// cell — gives the nil-kernel test a slot unique to that path position.
func invChainWithAnd(t testing.TB, n, at int) *netlist.Circuit {
	t.Helper()
	lib := cell.Default()
	c := netlist.New("invchain-and")
	for _, in := range []string{"a", "b"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	prev := "a"
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("n%d", i+1)
		var err error
		if i == at {
			_, err = c.AddGate(lib, "AND2", out, map[string]string{"A": prev, "B": "b"})
		} else {
			_, err = c.AddGate(lib, "INV", out, map[string]string{"A": prev})
		}
		if err != nil {
			t.Fatal(err)
		}
		prev = out
	}
	c.MarkOutput(prev)
	return c
}

// TestBatchedNilKernelErrorsAtExactArc pokes an uncharacterized hole
// into the middle of a warm kernel table and checks that the query
// fails on the exact arc, with the exact message naming the missing
// polynomial, while the prefix before the hole still scores.
func TestBatchedNilKernelErrorsAtExactArc(t *testing.T) {
	n := polyfit.BatchWidth + 3
	hole := polyfit.BatchWidth + 1 // second round, mid-tail
	e := New(invChainWithAnd(t, n, hole), t130(t), charLib130(t), Options{})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	var arcs []Arc
	for _, p := range res.Paths {
		if p.Start == "a" && len(p.Arcs) == n {
			arcs = p.Arcs
			break
		}
	}
	if arcs == nil {
		t.Fatal("no full-length path from a")
	}
	a := &arcs[hole]
	if a.Gate.Cell.Name != "AND2" {
		t.Fatalf("arc %d is %s, want the spliced AND2", hole, a.Gate.Cell.Name)
	}
	kt, err := e.kernels()
	if err != nil {
		t.Fatal(err)
	}
	slot, err := kt.slot(a)
	if err != nil {
		t.Fatal(err)
	}
	kt.delayID[slot] = -1   // stalint:ignore sharedstate test pokes a hole into a single-engine table it owns
	kt.delayID[slot+1] = -1 // stalint:ignore sharedstate test pokes a hole into a single-engine table it owns

	if _, err := e.ArcDelays(arcs[:hole], true); err != nil {
		t.Fatalf("prefix before the hole must still score: %v", err)
	}
	// The chain inverts at every INV; the edge entering the hole is the
	// launch edge flipped once per preceding arc.
	entering := hole%2 == 0
	want := "charlib: no polynomial arc " + charlib.PolyKey("AND2", a.Pin, a.Vec.Key(), entering)
	_, err = e.ArcDelays(arcs, true)
	if err == nil {
		t.Fatal("hole not detected")
	}
	if err.Error() != want {
		t.Errorf("error mismatch:\n got  %v\n want %s", err, want)
	}
}

// TestBatchedArcDelaysSteadyStateAllocs is the zero-allocation gate on
// a path spanning several BatchWidth rounds plus a partial tail (the
// generic gate in kernels_test.go scores one short fig4 path): warm
// table, warm lane scratch, supplied buffer — no allocations per query.
func TestBatchedArcDelaysSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	e, arcs := invChainArcs(t, 2*polyfit.BatchWidth+polyfit.BatchWidth/2)
	assertArcDelaysZeroAlloc(t, e, arcs)
}

// TestKernelStatsBatchFields checks the pool/batch observability the
// struct-of-arrays layer adds to KernelStats.
func TestKernelStatsBatchFields(t *testing.T) {
	e := delayEngine(t, "fig4", 1)
	if _, err := e.Enumerate(); err != nil {
		t.Fatal(err)
	}
	st := e.KernelStats()
	if st.PoolKernels == 0 || st.PoolTerms == 0 || st.PoolOps == 0 {
		t.Errorf("empty pool stats: %+v", st)
	}
	if st.BatchRounds == 0 || st.BatchLanes < st.BatchRounds {
		t.Errorf("batch counters not advanced: %+v", st)
	}
	if st.BatchFill <= 0 || st.BatchFill > 1 {
		t.Errorf("BatchFill %v outside (0, 1]", st.BatchFill)
	}
}

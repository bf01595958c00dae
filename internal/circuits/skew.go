package circuits

import (
	"fmt"
	"strings"

	"tpsta/internal/netlist"
)

// Skewed builds the pathological load-balance topology the work-stealing
// scheduler exists for: three inputs drive a deep width-3 ladder whose
// structural path count doubles per level (almost all search work lives
// in their three launch cones), while the remaining inputs each feed a
// single shallow gate. Sharded by launch point alone, a pool spends the
// run waiting on the deep shards; stealing spreads the deep cones'
// donated subtrees across every worker.
//
// Each ladder level mixes the previous level's three nets with three
// different gate types — the XOR keeps every level sensitizable in both
// edge directions and the rotation keeps the three rails functionally
// distinct (a symmetric two-rail ladder degenerates into identical
// functions and the true-path search prunes it to nothing).
func Skewed(name string, depth, shallow int) (*netlist.Circuit, error) {
	if depth < 1 || shallow < 2 || shallow%2 != 0 {
		return nil, fmt.Errorf("circuits: bad skew shape depth=%d shallow=%d", depth, shallow)
	}
	var b strings.Builder
	b.WriteString("# skewed: deep mixed-gate ladder + shallow siblings\n")
	b.WriteString("INPUT(D1)\nINPUT(D2)\nINPUT(D3)\n")
	for i := 1; i <= shallow; i++ {
		fmt.Fprintf(&b, "INPUT(S%d)\n", i)
	}
	b.WriteString("OUTPUT(deep)\n")
	for i := 1; i <= shallow/2; i++ {
		fmt.Fprintf(&b, "OUTPUT(t%d)\n", i)
	}
	b.WriteString("n0x = XOR(D1, D2)\nn0y = NAND(D2, D3)\nn0z = NOR(D3, D1)\n")
	for l := 1; l <= depth; l++ {
		fmt.Fprintf(&b, "n%dx = XOR(n%dx, n%dy)\n", l, l-1, l-1)
		fmt.Fprintf(&b, "n%dy = NAND(n%dy, n%dz)\n", l, l-1, l-1)
		fmt.Fprintf(&b, "n%dz = NOR(n%dz, n%dx)\n", l, l-1, l-1)
	}
	fmt.Fprintf(&b, "deep = XOR(n%dx, n%dy)\n", depth, depth)
	for i := 1; i <= shallow/2; i++ {
		fmt.Fprintf(&b, "t%d = NAND(S%d, S%d)\n", i, 2*i-1, 2*i)
	}
	return netlist.ParseBench(name, strings.NewReader(b.String()))
}

package spice

import (
	"fmt"
	"math"

	"tpsta/internal/cell"
	"tpsta/internal/num"
	"tpsta/internal/tech"
)

// node index sentinels for rail terminals.
const (
	railVDD = -1
	railGND = -2
)

// netDevice is one transistor of an elaborated network, with indices
// resolved and electrical parameters pre-computed for the simulation
// conditions.
type netDevice struct {
	nmos bool
	// gateNode is the solvable-node index of the gate net, or -1 when the
	// gate is a driven pin (gatePin set instead).
	gateNode int
	gatePin  int
	a, b     int // channel terminal node indices, or railVDD/railGND
	gon      float64
	vt       float64
	// full is the overdrive that saturates the activation: vdd − vt,
	// clamped to at least 0.05 V.
	full float64
}

// network is a cell's RC network prepared for transient solution.
type network struct {
	tc   *tech.Tech
	temp float64
	vdd  float64

	nodes    []string // solvable node names; index = node id
	nodeIdx  map[string]int
	caps     []float64 // nodal capacitance to ground
	devices  []netDevice
	pinNames []string // driven pin order; device.gatePin indexes this
	pinIdx   map[string]int
	zIdx     int // index of the cell output node

	pow alphaPower // x^tc.Alpha

	ws workspace
}

// workspace is the solver state of one simulation, allocated once in
// buildNetwork so the per-step kernel never allocates.
type workspace struct {
	g   []float64    // n×n conductance matrix, row-major
	rhs []float64    // current vector
	cdt []float64    // backward-Euler companion conductances caps[i]/dt
	buf [3][]float64 // voltage iterates: the previous step and two refinements
}

func newWorkspace(n int) workspace {
	flat := make([]float64, n*n+5*n)
	next := func(k int) []float64 {
		s := flat[:k]
		flat = flat[k:]
		return s
	}
	ws := workspace{g: next(n * n), rhs: next(n), cdt: next(n)}
	for i := range ws.buf {
		ws.buf[i] = next(n)
	}
	return ws
}

// gleak is a tiny leakage conductance from every solvable node to GND,
// keeping the DC operating point defined for floating internal nodes.
const gleak = 1e-9

// buildNetwork elaborates cell c under technology tc at the given
// temperature and supply, with an external capacitance load attached to Z.
func buildNetwork(c *cell.Cell, tc *tech.Tech, temp, vdd, load float64) (*network, error) {
	top := c.Topology()
	nw := &network{
		tc: tc, temp: temp, vdd: vdd,
		nodeIdx:  make(map[string]int, len(top.Nets)),
		pinIdx:   make(map[string]int, len(c.Inputs)),
		nodes:    make([]string, 0, len(top.Nets)),
		pinNames: make([]string, 0, len(c.Inputs)),
		devices:  make([]netDevice, 0, len(top.Devices)),
	}
	for _, p := range c.Inputs {
		nw.pinIdx[p] = len(nw.pinNames)
		nw.pinNames = append(nw.pinNames, p)
	}
	// Solvable nodes: every topology net that is not a driven pin.
	for _, n := range top.Nets {
		if _, driven := nw.pinIdx[n]; driven {
			continue
		}
		nw.nodeIdx[n] = len(nw.nodes)
		nw.nodes = append(nw.nodes, n)
	}
	zi, ok := nw.nodeIdx[cell.Output]
	if !ok {
		return nil, fmt.Errorf("spice: cell %s has no output node", c.Name)
	}
	nw.zIdx = zi
	nw.caps = make([]float64, len(nw.nodes))

	chanIdx := func(name string) (int, error) {
		switch name {
		case cell.VDD:
			return railVDD, nil
		case cell.GND:
			return railGND, nil
		}
		if i, ok := nw.nodeIdx[name]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("spice: channel terminal %q of cell %s is not a solvable node", name, c.Name)
	}

	for _, d := range top.Devices {
		w := d.W * tc.WminP
		if d.NMOS {
			w = d.W * tc.WminN
		}
		ai, err := chanIdx(d.A)
		if err != nil {
			return nil, err
		}
		bi, err := chanIdx(d.B)
		if err != nil {
			return nil, err
		}
		nd := netDevice{
			nmos:     d.NMOS,
			gateNode: -1,
			gatePin:  -1,
			a:        ai,
			b:        bi,
			gon:      1 / tc.RonAt(d.NMOS, w, temp, vdd),
			vt:       tc.Vt(d.NMOS, temp),
		}
		nd.full = vdd - nd.vt
		if nd.full < 0.05 {
			nd.full = 0.05
		}
		if pi, driven := nw.pinIdx[d.Gate]; driven {
			nd.gatePin = pi
		} else if gi, ok := nw.nodeIdx[d.Gate]; ok {
			nd.gateNode = gi
		} else {
			return nil, fmt.Errorf("spice: gate net %q of cell %s unknown", d.Gate, c.Name)
		}
		nw.devices = append(nw.devices, nd)
		// Junction caps at channel terminals.
		if ai >= 0 {
			nw.caps[ai] += tc.CjOf(w)
		}
		if bi >= 0 {
			nw.caps[bi] += tc.CjOf(w)
		}
		// Gate cap loads internal driver nets (driven pins are ideal
		// sources and absorb their own gate load).
		if nd.gateNode >= 0 {
			nw.caps[nd.gateNode] += tc.CgOf(w)
		}
	}
	// Wire cap on stage outputs; external load on Z.
	for _, st := range c.Stages {
		if i, ok := nw.nodeIdx[st.Out]; ok {
			nw.caps[i] += tc.Cw
		}
	}
	nw.caps[zi] += load
	// Guard: every node needs a nonzero capacitance for the integrator.
	for i, cp := range nw.caps {
		if cp <= 0 {
			nw.caps[i] = 1e-18
		}
	}
	nw.pow = newAlphaPower(tc.Alpha)
	nw.ws = newWorkspace(len(nw.nodes))
	return nw, nil
}

// alphaPower evaluates x^alpha for the alpha-power-law activation,
// returning exactly math.Pow(x, alpha).
type alphaPower struct {
	alpha float64
	frac  float64 // fractional part of alpha
	fast  bool    // alpha = 1 + frac with 0 < frac ≤ 0.5
}

func newAlphaPower(alpha float64) alphaPower {
	_, frac := math.Modf(alpha)
	return alphaPower{alpha: alpha, frac: frac, fast: alpha > 1 && alpha <= 1.5}
}

// minFastPow is the smallest base the fast path accepts: above it
// x^alpha ≥ x^1.5 > 2^-1020 is a normal float.
const minFastPow = 0x1p-680

// at returns math.Pow(x, p.alpha) bit for bit, for x < 1. With
// alpha = 1 + f, 0 < f ≤ 0.5, math.Pow computes Ldexp(Exp(f·Log(x))·m, e)
// where x = m·2^e. Scaling by a power of two is exact while the result
// stays normal, so Exp(f·Log(x))·x rounds to the same float whenever
// x > minFastPow. Every other exponent or base goes through math.Pow.
//
// stalint:noalloc called per conducting device on every refinement
func (p alphaPower) at(x float64) float64 {
	if p.fast && x > minFastPow {
		return math.Exp(p.frac*math.Log(x)) * x
	}
	return math.Pow(x, p.alpha)
}

// conductance returns the channel conductance of d given the gate voltage
// and the two channel terminal voltages, using a clamped alpha-power-law
// activation above threshold.
//
// The source is the lower (nMOS) or higher (pMOS) channel terminal. The
// plain compares differ from math.Min/Max only on NaN and on a ±0 pair;
// a zero of either sign leaves vg − vs and vs − vg unchanged unless vg
// is zero too, and then the overdrive is −vt or ±0 either way.
//
// stalint:noalloc called per device on every fixed-point refinement
func (nw *network) conductance(d *netDevice, vg, va, vb float64) float64 {
	var ov float64
	if d.nmos {
		vs := va
		if vb < vs {
			vs = vb
		}
		ov = vg - vs - d.vt
	} else {
		vs := va
		if vb > vs {
			vs = vb
		}
		ov = vs - vg - d.vt
	}
	if ov <= 0 {
		return 0
	}
	x := ov / d.full
	if x >= 1 {
		return d.gon // math.Pow(1, Alpha) is exactly 1
	}
	return d.gon * nw.pow.at(x)
}

// termVolt resolves a channel terminal index to a voltage.
func (nw *network) termVolt(idx int, v []float64) float64 {
	switch idx {
	case railVDD:
		return nw.vdd
	case railGND:
		return 0
	default:
		return v[idx]
	}
}

// assemble stamps the workspace conductance matrix and current vector
// for the voltage estimate v and pin voltages vp. The backward-Euler
// capacitor companions (C/dt terms) are added by the caller.
//
// stalint:noalloc the matrix stamp runs on every fixed-point refinement
func (nw *network) assemble(v, vp []float64) {
	n := len(nw.nodes)
	G, I := nw.ws.g, nw.ws.rhs
	clear(G)
	clear(I)
	for i := 0; i < n; i++ {
		G[i*n+i] = gleak
	}
	for k := range nw.devices {
		d := &nw.devices[k]
		var vg float64
		if d.gatePin >= 0 {
			vg = vp[d.gatePin]
		} else {
			vg = v[d.gateNode]
		}
		va := nw.termVolt(d.a, v)
		vb := nw.termVolt(d.b, v)
		g := nw.conductance(d, vg, va, vb)
		if num.IsZero(g) {
			continue
		}
		// The conductance between the channel terminals, stamped from a
		// then from b; a rail terminal becomes a current source.
		if d.a >= 0 {
			G[d.a*n+d.a] += g
			if d.b >= 0 {
				G[d.a*n+d.b] -= g
			} else {
				I[d.a] += g * vb
			}
		}
		if d.b >= 0 {
			G[d.b*n+d.b] += g
			if d.a >= 0 {
				G[d.b*n+d.a] -= g
			} else {
				I[d.b] += g * va
			}
		}
	}
}

// solveLinear solves G x = I by Gaussian elimination with partial
// pivoting, writing the solution into x. G is n×n row-major with
// n = len(I); G and I are destroyed. Entries left of the diagonal are
// never read once their column is eliminated, so row swaps and row
// updates skip them.
//
// stalint:noalloc the linear solve runs on every fixed-point refinement
func solveLinear(G, I, x []float64) error {
	n := len(I)
	for col := 0; col < n; col++ {
		// pivot
		p := col
		pv := math.Abs(G[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(G[r*n+col]); a > pv {
				p, pv = r, a
			}
		}
		if pv < 1e-30 {
			return errSingular(col)
		}
		pr := G[col*n : col*n+n]
		if p != col {
			rp := G[p*n : p*n+n]
			for c := col; c < n; c++ {
				pr[c], rp[c] = rp[c], pr[c]
			}
			I[col], I[p] = I[p], I[col]
		}
		inv := 1 / pr[col]
		for r := col + 1; r < n; r++ {
			row := G[r*n : r*n+n]
			f := row[col] * inv
			if num.IsZero(f) {
				continue
			}
			for c := col + 1; c < n; c++ {
				row[c] -= f * pr[c]
			}
			I[r] -= f * I[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		row := G[r*n : r*n+n]
		sum := I[r]
		for c := r + 1; c < n; c++ {
			sum -= row[c] * x[c]
		}
		x[r] = sum / row[r]
	}
	return nil
}

// errSingular reports a pivot below the singularity threshold.
//
// stalint:coldpath terminal error; the simulation is abandoned
func errSingular(col int) error {
	return fmt.Errorf("spice: singular conductance matrix at column %d", col)
}

// dcSolve finds the operating point for fixed pin voltages vp by damped
// fixed-point iteration on the nonlinear conductances. The result is
// the workspace's first iterate buffer, ws.buf[0].
func (nw *network) dcSolve(vp []float64) ([]float64, error) {
	v, x := nw.ws.buf[0], nw.ws.buf[1]
	// Start mid-rail to give the activation functions a gradient.
	for i := range v {
		v[i] = nw.vdd / 2
	}
	for iter := 0; iter < 60; iter++ {
		nw.assemble(v, vp)
		if err := solveLinear(nw.ws.g, nw.ws.rhs, x); err != nil {
			return nil, err
		}
		delta := 0.0
		for i := range v {
			d := x[i] - v[i]
			if math.Abs(d) > delta {
				delta = math.Abs(d)
			}
			v[i] += 0.7 * d // damping for stable convergence
		}
		if delta < 1e-6 {
			break
		}
	}
	return v, nil
}

// step advances one backward-Euler time step of length dt (the
// companions ws.cdt hold caps/dt) from the voltages in ws.buf[prev],
// with pin voltages vp, refining the nonlinear conductances by up to
// three fixed-point iterations. It returns the index of the buffer
// holding the new voltages. A refinement whose result equals its input
// bit for bit is a fixed point of the (deterministic) refinement map,
// so the remaining ones would reproduce it; they are skipped.
//
// stalint:noalloc the per-step kernel of every transient simulation
func (nw *network) step(prev int, vp []float64) (int, error) {
	ws := &nw.ws
	v := ws.buf[prev]
	n := len(v)
	est := prev
	for it := 0; it < 3; it++ {
		out := (est + 1) % 3
		if out == prev {
			out = (out + 1) % 3
		}
		nw.assemble(ws.buf[est], vp)
		for i := 0; i < n; i++ {
			ws.g[i*n+i] += ws.cdt[i]
			ws.rhs[i] += ws.cdt[i] * v[i]
		}
		if err := solveLinear(ws.g, ws.rhs, ws.buf[out]); err != nil {
			return prev, err
		}
		fixed := sameBits(ws.buf[out], ws.buf[est])
		est = out
		if fixed {
			break
		}
	}
	return est, nil
}

// sameBits reports whether a and b hold identical bit patterns.
//
// stalint:noalloc called once per fixed-point refinement
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// The host's speed drifts: on a shared 2-vCPU VM the same library build
// took 40 CPU seconds in one run and 51 in another, and a query stream
// sped up by 40% within ten minutes, with no other load in the VM. CPU
// time cannot remove that, since the work itself ran slower. So every run
// also times a fixed reference job that shares no code with the program,
// and the end-to-end times are divided by the ratio of that job's median
// CPU time in the run to refNominal. Alternating reference passes with a
// library build and a c880 query for eight minutes, the 30-second medians
// of the build and the query moved by 11% raw and by 3% so divided.

// refNominal is the reference host speed: the CPU seconds of one refPass
// the normalized metrics are scaled to.
const refNominal = 0.020

// refEvery is how often, in wall seconds, the reference job runs between
// the operations of a run.
const refEvery = time.Second

// refData is the reference job's input, the same in every run.
var refData = func() []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<13)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	return xs
}()

var refBuf = make([]float64, len(refData))

// refSink keeps the reference job's result live.
var refSink float64

// refPass is the reference job. It mixes the two kinds of work the
// workloads do: small dense eliminations with exponentials, as in
// transient simulation, and branchy compare-and-move over memory, as in
// sorting and search. It allocates nothing.
func refPass() float64 {
	const m = 16
	var a [m][m + 1]float64
	s := 0.0
	for r := 0; r < 20; r++ {
		copy(refBuf, refData)
		sort.Float64s(refBuf)
		for i, x := range refBuf {
			s += math.Exp(-x) * float64(i&7)
		}
		for it := 0; it < 100; it++ {
			for i := 0; i < m; i++ {
				for j := 0; j <= m; j++ {
					a[i][j] = math.Exp(-refData[(i*31+j*7+it)&(len(refData)-1)])
				}
				a[i][i] += m
			}
			for k := 0; k < m; k++ {
				for i := k + 1; i < m; i++ {
					f := a[i][k] / a[k][k]
					for j := k; j <= m; j++ {
						a[i][j] -= f * a[k][j]
					}
				}
			}
			s += a[m-1][m] / a[m-1][m-1]
		}
	}
	return s
}

// calibrate runs refPass when refEvery has passed since the last pass, or
// when force is set, and records its CPU seconds.
func (b *bench) calibrate(force bool) {
	if !force && time.Since(b.lastRef) < refEvery {
		return
	}
	done := meter()
	refSink += refPass()
	b.refs = append(b.refs, done().cpu)
	b.lastRef = time.Now()
}

// speed is the run's median reference time over refNominal: how many
// times slower than the reference host this run's host was.
func (b *bench) speed() float64 {
	return median(b.refs) / refNominal
}

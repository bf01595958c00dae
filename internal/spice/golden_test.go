package spice

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/tech"
)

// The golden digests below pin the simulator's output bit for bit: they
// hash the IEEE-754 bit patterns of every reported float and waveform
// sample. They were recorded on linux/amd64 before the transient kernel
// was rewritten around a flat solver workspace and the alpha-power fast
// path, and prove those rewrites changed no floating-point result.
// Other architectures may fuse multiply-adds differently; the digests
// are only checked on linux/amd64.
const (
	goldenGateAO22 = "940e130f93c0d8274192a6abfc0d5ee9a89436923cc7243ef0d789371d8b0bcc"
	goldenPath     = "56fe2d2098c7bf937c76346b101cf9fe9b596df2ec21622b8a10d93fc6e72464"
	goldenMIS      = "03d0b217370930b4667b64e0a079c94e3727c6d979fb51a3934b41edb2e3ef54"
)

func digestFloats(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func digestBool(h hash.Hash, v bool) {
	if v {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

func digestWave(h hash.Hash, w Waveform) {
	digestFloats(h, float64(len(w.Times)))
	digestFloats(h, w.Times...)
	digestFloats(h, w.Volts...)
}

func techNamed(t *testing.T, name string) *tech.Tech {
	t.Helper()
	tc, err := tech.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func checkDigest(t *testing.T, what string, h hash.Hash, want string) {
	t.Helper()
	got := hex.EncodeToString(h.Sum(nil))
	if !goldenPlatform() {
		t.Logf("%s digest %s (not compared off linux/amd64)", what, got)
		return
	}
	if got != want {
		t.Errorf("%s digest changed:\n got  %s\n want %s", what, got, want)
	}
}

// TestGoldenGateAO22 pins one full single-gate simulation, waveform
// included, at 130 nm (Alpha 1.30).
func TestGoldenGateAO22(t *testing.T) {
	tc := techNamed(t, "130nm")
	ao22 := cell.Default().MustGet("AO22")
	r, err := New(tc).SimulateGate(ao22, ao22.Vectors("A")[1], false, 40e-12, ao22.InputCap(tc, "A"))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	digestFloats(h, r.Delay, r.OutputSlew, r.OutputSlew2080)
	digestBool(h, r.OutputRising)
	digestWave(h, r.Wave)
	checkDigest(t, "SimulateGate AO22", h, goldenGateAO22)
}

// TestGoldenPath pins one chained path simulation through simple and
// complex cells at 65 nm (Alpha 1.15).
func TestGoldenPath(t *testing.T) {
	tc := techNamed(t, "65nm")
	lib := cell.Default()
	inv, ao22, oa12, nand := lib.MustGet("INV"), lib.MustGet("AO22"), lib.MustGet("OA12"), lib.MustGet("NAND3")
	stages := []PathStage{
		{Cell: inv, Vec: inv.Vectors("A")[0], Load: ao22.InputCap(tc, "A")},
		{Cell: ao22, Vec: ao22.Vectors("A")[2], Load: oa12.InputCap(tc, "C")},
		{Cell: oa12, Vec: oa12.Vectors("C")[0], Load: nand.InputCap(tc, "B")},
		{Cell: nand, Vec: nand.Vectors("B")[0], Load: 3 * inv.InputCap(tc, "A")},
		{Cell: inv, Vec: inv.Vectors("A")[0], Load: 8 * inv.InputCap(tc, "A")},
	}
	r, err := New(tc).SimulatePath(stages, true, 60e-12)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	digestFloats(h, r.StageDelays...)
	digestFloats(h, r.StageSlews...)
	digestFloats(h, r.Total)
	digestBool(h, r.FinalRising)
	checkDigest(t, "SimulatePath", h, goldenPath)
}

// TestGoldenMIS pins one staggered multiple-input-switching simulation
// at 90 nm (Alpha 1.22).
func TestGoldenMIS(t *testing.T) {
	tc := techNamed(t, "90nm")
	ao22 := cell.Default().MustGet("AO22")
	r, err := New(tc).SimulateGateMIS(ao22, []SwitchingInput{
		{Pin: "A", Rising: true, Offset: 15e-12},
		{Pin: "B", Rising: true},
	}, map[string]bool{"C": true, "D": false}, 50e-12, 2*ao22.InputCap(tc, "A"))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	digestFloats(h, r.OutputCross, r.OutputSlew)
	digestBool(h, r.OutputRising)
	digestWave(h, r.Wave)
	checkDigest(t, "SimulateGateMIS", h, goldenMIS)
}

// goldenPlatform reports whether the recorded golden digests apply.
func goldenPlatform() bool { return runtime.GOOS == "linux" && runtime.GOARCH == "amd64" }

package spice_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/tech"
)

// goldenSave holds sha256 digests of charlib's Library.Save for
// TestGrid builds of every default cell — the simulator's output as the
// rest of the system consumes it. They were recorded on linux/amd64
// before the transient kernel was rewritten (flat solver workspace,
// exact alpha-power fast path) and prove the rewrite changed no saved
// byte. Other architectures may fuse multiply-adds differently, so the
// digests are only compared on linux/amd64.
var goldenSave = map[string]string{
	"90nm": "f01daeceaaaa96343be26d00ac3a528b72312057b4abaf89f72f84e62d9aff2d",
	"65nm": "f3934eca25ebdec52d2ce5c6912cb42b594ef487905b073f309208fa04f40899",
}

func TestGoldenSaveDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-library characterization")
	}
	for _, name := range []string{"90nm", "65nm"} {
		t.Run(name, func(t *testing.T) {
			tc, err := tech.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			l, err := charlib.Characterize(tc, cell.Default(), charlib.TestGrid(), charlib.Options{})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := l.Save(h); err != nil {
				t.Fatal(err)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
				t.Logf("Save digest %s (not compared off linux/amd64)", got)
				return
			}
			if want := goldenSave[name]; got != want {
				t.Errorf("Save digest changed:\n got  %s\n want %s", got, want)
			}
		})
	}
}

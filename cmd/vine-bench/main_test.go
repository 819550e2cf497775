package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"testing"
)

func TestCheckScale(t *testing.T) {
	for _, s := range []float64{0.01, 0.2, 1} {
		if err := checkScale(s); err != nil {
			t.Errorf("checkScale(%g) = %v, want nil", s, err)
		}
	}
	for _, s := range []float64{0, -0.5, 1.0001, 5, math.NaN(), math.Inf(1)} {
		if err := checkScale(s); err == nil {
			t.Errorf("checkScale(%g) accepted an out-of-range scale", s)
		}
	}
}

// TestScaleAboveOneIsUsageError runs main in a child process: -scale 5
// must exit with status 2 before any figure runs.
func TestScaleAboveOneIsUsageError(t *testing.T) {
	if os.Getenv("VINE_BENCH_MAIN") == "1" {
		os.Args = []string{"vine-bench", "-scale", "5", "fig9"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestScaleAboveOneIsUsageError$")
	cmd.Env = append(os.Environ(), "VINE_BENCH_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("vine-bench -scale 5: err = %v, want exit status 2; output:\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("outside (0, 1]")) {
		t.Fatalf("usage error does not name the valid range:\n%s", out)
	}
}

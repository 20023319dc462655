package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean wrong")
	}
}

func TestLinearFitExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 2x + 3
	slope, intercept := LinearFit(x, y)
	if !almost(slope, 2) || !almost(intercept, 3) {
		t.Errorf("fit = %f, %f", slope, intercept)
	}
	if !almost(R2(x, y), 1) {
		t.Errorf("R2 = %f", R2(x, y))
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	slope, intercept := LinearFit([]float64{1}, []float64{5})
	if slope != 0 || intercept != 5 {
		t.Error("single-point fit wrong")
	}
	slope, intercept = LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if slope != 0 || !almost(intercept, 2) {
		t.Error("constant-x fit wrong")
	}
}

func TestLinearFitRecoversRandomLines(t *testing.T) {
	f := func(a, b int8) bool {
		slope0, icept0 := float64(a), float64(b)
		x := []float64{0, 1, 2, 3, 4, 5}
		y := make([]float64, len(x))
		for i := range x {
			y[i] = slope0*x[i] + icept0
		}
		s, c := LinearFit(x, y)
		return almost(s, slope0) && almost(c, icept0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestR2Bounds(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 1, 4, 3, 5} // noisy increasing
	r2 := R2(x, y)
	if r2 < 0 || r2 > 1 {
		t.Errorf("R2 = %f outside [0,1] for monotone-ish data", r2)
	}
	if R2(x, []float64{7, 7, 7, 7, 7}) != 1 {
		t.Error("constant y should give R2 = 1 by convention")
	}
}

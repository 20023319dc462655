// Package stats provides the small numeric summaries the experiment tables
// report: means and least-squares fits (used to fit "iterations vs log n"
// and "stages vs log Δ" scaling lines).
package stats

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LinearFit returns the least-squares slope and intercept of y against x.
// It requires len(x) == len(y) >= 2 and non-constant x; otherwise it
// returns (0, Mean(y)).
func LinearFit(x, y []float64) (slope, intercept float64) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, Mean(y)
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return 0, my
	}
	slope = sxy / sxx
	return slope, my - slope*mx
}

// R2 returns the coefficient of determination of the linear fit.
func R2(x, y []float64) float64 {
	slope, intercept := LinearFit(x, y)
	my := Mean(y)
	var ssRes, ssTot float64
	for i := range y {
		pred := slope*x[i] + intercept
		ssRes += (y[i] - pred) * (y[i] - pred)
		ssTot += (y[i] - my) * (y[i] - my)
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}

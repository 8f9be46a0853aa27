package analysis

import "math"

// MeanCI holds the mean of a sample together with its dispersion and
// the 95% confidence half-width of the mean — the aggregate the
// multi-seed campaign runs report per metric (see Online).
type MeanCI struct {
	N    int
	Mean float64
	// Std is the sample standard deviation (n-1 denominator); 0 for a
	// single observation.
	Std float64
	// CI95 is the half-width of the two-sided 95% confidence interval
	// of the mean (Student-t); 0 for a single observation.
	CI95 float64
}

// tCrit95 returns the two-sided 95% critical value of the Student-t
// distribution with df degrees of freedom (table for small df, the
// normal limit beyond it).
func tCrit95(df int) float64 {
	// Standard two-sided 0.05 critical values, df = 1..30.
	table := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df < 1:
		return math.NaN()
	case df <= len(table):
		return table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

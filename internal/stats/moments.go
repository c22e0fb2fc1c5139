package stats

import "math"

// Mean returns the arithmetic mean of vals, or 0 for empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns 0 when the inputs differ in length, have fewer than two
// points, or either side has zero variance.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation between x and y
// (Pearson correlation of the ranks, with ties given average rank).
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	return Pearson(Ranks(x), Ranks(y))
}

// Ranks returns the 1-based average ranks of vals (ties share the
// mean of the ranks they occupy).
func Ranks(vals []float64) []float64 {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// insertion-free: sort indices by value
	quickSortIdx(idx, vals)
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && vals[idx[j+1]] == vals[idx[i]] {
			j++
		}
		avg := (float64(i) + float64(j)) / 2.0
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg + 1
		}
		i = j + 1
	}
	return ranks
}

func quickSortIdx(idx []int, vals []float64) {
	if len(idx) < 2 {
		return
	}
	// simple median-of-three quicksort on indices keyed by vals
	lo, hi := 0, len(idx)-1
	mid := (lo + hi) / 2
	if vals[idx[mid]] < vals[idx[lo]] {
		idx[mid], idx[lo] = idx[lo], idx[mid]
	}
	if vals[idx[hi]] < vals[idx[lo]] {
		idx[hi], idx[lo] = idx[lo], idx[hi]
	}
	if vals[idx[hi]] < vals[idx[mid]] {
		idx[hi], idx[mid] = idx[mid], idx[hi]
	}
	pivot := vals[idx[mid]]
	i, j := lo, hi
	for i <= j {
		for vals[idx[i]] < pivot {
			i++
		}
		for vals[idx[j]] > pivot {
			j--
		}
		if i <= j {
			idx[i], idx[j] = idx[j], idx[i]
			i++
			j--
		}
	}
	quickSortIdx(idx[:j+1], vals)
	quickSortIdx(idx[i:], vals)
}

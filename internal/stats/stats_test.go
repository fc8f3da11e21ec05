package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 64", same)
	}
}

func TestRandZeroSeedWorks(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square style sanity check on 8 buckets.
	r := NewRand(11)
	const draws = 80000
	var counts [8]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(8)]++
	}
	want := draws / 8
	for i, c := range counts {
		if math.Abs(float64(c-want)) > float64(want)/10 {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(5)
	check := func(n int) {
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if seen[v] {
				t.Fatalf("Perm(%d): duplicate %d", n, v)
			}
			seen[v] = true
		}
	}
	for _, n := range []int{0, 1, 2, 17, 256} {
		check(n)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeoMean(2,8) = %v, want 4", g)
	}
	if g := GeoMean([]float64{1, 1, 1}); math.Abs(g-1) > 1e-12 {
		t.Fatalf("GeoMean(ones) = %v, want 1", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %v, want 0", g)
	}
	// Non-positive entries are skipped, not zero-collapsing.
	if g := GeoMean([]float64{0, 4, 4}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeoMean with zero = %v, want 4", g)
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Mean(xs) != 2.8 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty-slice helpers should return 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 50); p != 5 {
		t.Fatalf("P50 = %v, want 5", p)
	}
	if p := Percentile(xs, 100); p != 10 {
		t.Fatalf("P100 = %v, want 10", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("P0 = %v, want 1", p)
	}
}

func TestPow2Helpers(t *testing.T) {
	cases := []struct{ n, next, prev uint64 }{
		{1, 1, 1}, {2, 2, 2}, {3, 4, 2}, {5, 8, 4}, {1024, 1024, 1024}, {1025, 2048, 1024},
	}
	for _, c := range cases {
		if NextPow2(c.n) != c.next {
			t.Errorf("NextPow2(%d) = %d, want %d", c.n, NextPow2(c.n), c.next)
		}
		if PrevPow2(c.n) != c.prev {
			t.Errorf("PrevPow2(%d) = %d, want %d", c.n, PrevPow2(c.n), c.prev)
		}
	}
	if !IsPow2(64) || IsPow2(65) || IsPow2(0) {
		t.Fatal("IsPow2 misclassified")
	}
}

func TestPow2Property(t *testing.T) {
	f := func(n uint32) bool {
		v := uint64(n%1_000_000) + 1
		np, pp := NextPow2(v), PrevPow2(v)
		return IsPow2(np) && IsPow2(pp) && np >= v && pp <= v && np < 2*v && 2*pp > v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLog2Ceil(t *testing.T) {
	for _, c := range []struct {
		n uint64
		k uint
	}{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1 << 20, 20}} {
		if g := Log2Ceil(c.n); g != c.k {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.n, g, c.k)
		}
	}
}

func TestDivCeil(t *testing.T) {
	if DivCeil(10, 3) != 4 || DivCeil(9, 3) != 3 || DivCeil(0, 5) != 0 {
		t.Fatal("DivCeil wrong")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	for i := 0; i < 10; i++ {
		if h.Buckets[i] != 1 {
			t.Fatalf("bucket %d = %d, want 1", i, h.Buckets[i])
		}
	}
	h.Add(-5) // clamps low
	h.Add(99) // clamps high
	if h.Buckets[0] != 2 || h.Buckets[9] != 2 {
		t.Fatal("edge clamping failed")
	}
	if f := h.Frac(0); math.Abs(f-2.0/12.0) > 1e-12 {
		t.Fatalf("Frac = %v", f)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRand(9)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams overlapped %d/64 draws", same)
	}
}

func TestExpPositive(t *testing.T) {
	r := NewRand(13)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Exp()
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Exp produced %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Fatalf("Exp mean = %v, want ~1", mean)
	}
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
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

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Spsort: two more NON-commutative irregular-update kernels through the
// same PB API — counting sort (NAS IS class) and sparse transpose
// (SuiteSparse cs_transpose) — demonstrating §III-B's claim that PB
// needs only unordered parallelism, not commutativity. The transpose's
// matrix has n/32 rows (1M at the default n).
//
// Run: go run ./examples/spsort [-n 33554432] [-maxkey 16777216]
package main

import (
	"flag"
	"fmt"
	"time"

	"cobra/internal/isort"
	"cobra/internal/pb"
	"cobra/internal/sparse"
	"cobra/internal/stats"
)

func main() {
	n := flag.Int("n", 32<<20, "keys to sort")
	maxKey := flag.Int("maxkey", 16<<20, "maximum key value")
	flag.Parse()

	// --- Integer sort ---
	fmt.Printf("integer sort: %d keys in [0, %d)\n", *n, *maxKey)
	r := stats.NewRand(3)
	keys := make([]uint32, *n)
	for i := range keys {
		keys[i] = uint32(r.Intn(*maxKey))
	}

	ref := append([]uint32(nil), keys...)
	start := time.Now()
	isort.SortComparisonParallel(ref)
	cmpTime := time.Since(start)

	start = time.Now()
	counting := isort.CountingSort(keys, *maxKey)
	countTime := time.Since(start)

	start = time.Now()
	blocked := isort.CountingSortPB(keys, *maxKey, pb.Options{})
	pbTime := time.Since(start)

	for i := range ref {
		if counting[i] != ref[i] || blocked[i] != ref[i] {
			panic("sort outputs differ")
		}
	}
	fmt.Printf("  comparison sort:  %v\n", cmpTime.Round(time.Millisecond))
	fmt.Printf("  counting sort:    %v\n", countTime.Round(time.Millisecond))
	fmt.Printf("  PB counting sort: %v (%.2fx vs counting)\n",
		pbTime.Round(time.Millisecond), float64(countTime)/float64(pbTime))

	// --- Sparse transpose ---
	rows := *n / 32
	fmt.Printf("sparse transpose: %d x %d, power-law columns\n", rows, rows)
	m := sparse.SkewedSparse(rows, rows, 8, 5)

	start = time.Now()
	t1 := sparse.Transpose(m)
	baseTime := time.Since(start)

	start = time.Now()
	t2 := sparse.TransposePB(m, pb.Options{})
	pbTTime := time.Since(start)

	if err := t2.Validate(); err != nil {
		panic(err)
	}
	if t1.NNZ() != t2.NNZ() {
		panic("transpose NNZ mismatch")
	}
	// Row pointers must agree exactly; within-row order may differ.
	for i := 0; i <= t1.Rows; i++ {
		if t1.RowPtr[i] != t2.RowPtr[i] {
			panic("transpose row structure mismatch")
		}
	}
	fmt.Printf("  baseline:  %v\n", baseTime.Round(time.Millisecond))
	fmt.Printf("  PB:        %v (%.2fx)\n", pbTTime.Round(time.Millisecond),
		float64(baseTime)/float64(pbTTime))
	fmt.Println("all outputs validated ✓")
}

// Package isort provides the integer-sorting workload: a comparison
// baseline (the stand-in for __gnu_parallel::sort), a counting sort
// whose scatter is a classic irregular non-commutative update, and the
// propagation-blocked counting sort the paper's PB/COBRA versions
// optimize.
package isort

import (
	"runtime"
	"sort"
	"sync"

	"cobra/internal/pb"
)

// SortComparison sorts keys with the standard library (pdqsort), the
// baseline the paper compares against (§VI uses __gnu_parallel::sort).
func SortComparison(keys []uint32) {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
}

// SortComparisonParallel is a simple parallel merge-over-chunks wrapper
// around the stdlib sort, approximating the parallel baseline.
func SortComparisonParallel(keys []uint32) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 || len(keys) < 1<<14 {
		SortComparison(keys)
		return
	}
	chunk := (len(keys) + workers - 1) / workers
	var wg sync.WaitGroup
	for b := 0; b < len(keys); b += chunk {
		e := b + chunk
		if e > len(keys) {
			e = len(keys)
		}
		wg.Add(1)
		go func(s []uint32) {
			defer wg.Done()
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		}(keys[b:e])
		_ = e
	}
	wg.Wait()
	// k-way merge via repeated pairwise merges.
	out := make([]uint32, len(keys))
	size := chunk
	src, dst := keys, out
	for size < len(keys) {
		for lo := 0; lo < len(keys); lo += 2 * size {
			mid := lo + size
			hi := lo + 2*size
			if mid > len(keys) {
				mid = len(keys)
			}
			if hi > len(keys) {
				hi = len(keys)
			}
			merge(src[lo:mid], src[mid:hi], dst[lo:hi])
		}
		src, dst = dst, src
		size *= 2
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

func merge(a, b, out []uint32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// CountingSort sorts keys in [0, maxKey) using the textbook counting
// sort [16]. The histogram increments and the scatter are irregular
// updates over the full key range; the scatter is non-commutative
// (cursor order defines stability).
func CountingSort(keys []uint32, maxKey int) []uint32 {
	counts := make([]uint32, maxKey)
	for _, k := range keys {
		counts[k]++ // irregular update
	}
	cursor := make([]uint32, maxKey)
	var sum uint32
	for i, c := range counts {
		cursor[i] = sum
		sum += c
	}
	out := make([]uint32, len(keys))
	for _, k := range keys {
		out[cursor[k]] = k // irregular non-commutative update
		cursor[k]++
	}
	return out
}

// CountingSortPB is the propagation-blocked counting sort: both the
// histogram and the scatter run through PB bins so the counter/cursor
// working set stays in cache.
func CountingSortPB(keys []uint32, maxKey int, o pb.Options) []uint32 {
	counts := pb.Histogram(keys, maxKey, o)
	cursor := make([]uint32, maxKey)
	var sum uint32
	for i, c := range counts {
		cursor[i] = sum
		sum += c
	}
	out := make([]uint32, len(keys))
	pb.Run(len(keys), maxKey,
		func(b, e int, emit func(uint32, uint32)) {
			for _, k := range keys[b:e] {
				emit(k, k)
			}
		},
		func(k uint32, v uint32) {
			out[cursor[k]] = v
			cursor[k]++
		},
		o)
	return out
}

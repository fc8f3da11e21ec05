package pb

// This file provides a ready-made PB application of the generic
// executor: the dense histogram, the commutative shape of most
// irregular-update kernels.

// Histogram counts occurrences of each key in keys over [0, numKeys)
// using propagation blocking. Equivalent to the naive loop
//
//	for _, k := range keys { counts[k]++ }
//
// but cache-friendly when numKeys*4B exceeds the cache.
func Histogram(keys []uint32, numKeys int, o Options) []uint32 {
	counts := make([]uint32, numKeys)
	Run(len(keys), numKeys,
		func(begin, end int, emit func(uint32, struct{})) {
			for _, k := range keys[begin:end] {
				emit(k, struct{}{})
			}
		},
		func(k uint32, _ struct{}) { counts[k]++ },
		o)
	return counts
}

// Package pb implements Propagation Blocking (Beamer et al. [13]) as a
// reusable, generic locality optimization for irregular memory updates.
//
// An application with unordered parallelism produces a stream of
// (key, value) update tuples whose keys scatter over a large range —
// updating vertex data while streaming graph edges, bumping histogram
// counters while scanning keys, writing a sparse transpose. Applying
// such updates directly thrashes the cache. Propagation Blocking splits
// execution into two phases:
//
//   - Binning: stream the input and append each tuple to one of several
//     bins, where bin i holds keys in [i*BinRange, (i+1)*BinRange).
//     Writes to bins are sequential, so this phase streams.
//   - Accumulate: process bins one at a time. Each bin's keys span only
//     BinRange elements, which fit in cache, so the irregular updates
//     now hit.
//
// The paper's §III-B insight is implemented faithfully: updates need
// NOT be commutative. The only contract is unordered parallelism —
// Apply must tolerate updates to different keys landing in any order.
// Within one key, updates from one producer chunk are applied in
// production order; ordering across chunks is unspecified.
//
// The executor runs a pre-counting pass ("Init" in the paper's Table I)
// so bins are exactly sized, then bins in parallel with per-worker
// private bins (no synchronization, as in the paper), then accumulates
// bins in parallel (disjoint key ranges never race).
package pb

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"

	"cobra/internal/stats"
)

// Update is one irregular update tuple.
type Update[V any] struct {
	Key uint32
	Val V
}

// Source produces the update tuples for input items [begin, end).
// The executor calls it from multiple goroutines on disjoint ranges; it
// must be safe for that (read-only over the input).
type Source[V any] func(begin, end int, emit func(key uint32, val V))

// Apply consumes one binned update during Accumulate. Calls for
// different bins may run concurrently; keys within a bin are delivered
// from a single goroutine.
type Apply[V any] func(key uint32, val V)

// Options tunes the executor.
type Options struct {
	// NumBins requests a bin count; the executor rounds so that the bin
	// range is a power of two (making binning a shift, as in the paper).
	// 0 picks a default sized for a 256 KB L2 working set per bin.
	NumBins int
	// Workers is the number of binning/accumulate goroutines.
	// 0 uses GOMAXPROCS.
	Workers int
	// SkipCount disables the exact pre-counting pass and grows bins
	// dynamically instead. Costs reallocation but halves source passes;
	// useful when the source is expensive.
	SkipCount bool
}

// Stats reports what an execution did.
type Stats struct {
	NumKeys   int
	NumBins   int
	BinRange  int // keys per bin (power of two)
	BinShift  uint
	Workers   int
	Updates   uint64 // tuples binned == tuples accumulated
	BinBytes  uint64 // bytes of bin storage allocated
	CountPass bool
}

func (s Stats) String() string {
	return fmt.Sprintf("pb: %d updates over %d keys, %d bins x %d range, %d workers",
		s.Updates, s.NumKeys, s.NumBins, s.BinRange, s.Workers)
}

// plan resolves options against the key range.
func plan(numKeys int, o Options) (bins int, shift uint, workers int) {
	if numKeys <= 0 {
		return 1, 0, 1
	}
	target := o.NumBins
	if target <= 0 {
		// Default: bin ranges sized so a bin's touched data (~4-8 B/key)
		// fits comfortably in L2: 32Ki keys per bin.
		target = int(stats.DivCeil(uint64(numKeys), 32<<10))
	}
	if target < 1 {
		target = 1
	}
	if target > numKeys {
		target = numKeys
	}
	rng := stats.NextPow2(stats.DivCeil(uint64(numKeys), uint64(target)))
	shift = stats.Log2Ceil(rng)
	bins = int(stats.DivCeil(uint64(numKeys), rng))
	workers = o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	return bins, shift, workers
}

// Run executes PB over numItems input items producing updates to keys
// in [0, numKeys). It returns execution stats. It panics if a produced
// key is out of range (programming error in the source).
func Run[V any](numItems, numKeys int, src Source[V], apply Apply[V], o Options) Stats {
	bins, shift, workers := plan(numKeys, o)
	st := Stats{
		NumKeys:   numKeys,
		NumBins:   bins,
		BinRange:  1 << shift,
		BinShift:  shift,
		Workers:   workers,
		CountPass: !o.SkipCount,
	}
	if numItems <= 0 || numKeys <= 0 {
		return st
	}

	// Partition input items across workers.
	chunk := (numItems + workers - 1) / workers
	type segment struct{ begin, end int }
	segs := make([]segment, 0, workers)
	for b := 0; b < numItems; b += chunk {
		e := b + chunk
		if e > numItems {
			e = numItems
		}
		segs = append(segs, segment{b, e})
	}

	// Per-worker private bins (paper: per-thread duplicates eliminate
	// synchronization during Binning).
	binsOf := make([][][]Update[V], len(segs))

	// Out-of-range keys are a programming error in the source; detect in
	// the workers but panic from the caller's goroutine so it is
	// recoverable.
	badKeys := make([]int64, len(segs))
	for w := range badKeys {
		badKeys[w] = -1
	}
	checkBad := func() {
		for _, k := range badKeys {
			if k >= 0 {
				panic(fmt.Sprintf("pb: key %d out of range [0,%d)", k, numKeys))
			}
		}
	}

	if !o.SkipCount {
		// Init: exact pre-count so each bin is a single allocation.
		counts := make([][]uint32, len(segs))
		var wg sync.WaitGroup
		for w := range segs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cnt := make([]uint32, bins)
				src(segs[w].begin, segs[w].end, func(key uint32, _ V) {
					if int(key) >= numKeys {
						if badKeys[w] < 0 {
							badKeys[w] = int64(key)
						}
						return
					}
					cnt[key>>shift]++
				})
				counts[w] = cnt
			}(w)
		}
		wg.Wait()
		checkBad()
		for w := range segs {
			bs := make([][]Update[V], bins)
			for b := 0; b < bins; b++ {
				if c := counts[w][b]; c > 0 {
					bs[b] = make([]Update[V], 0, c)
				}
			}
			binsOf[w] = bs
		}
	} else {
		for w := range segs {
			binsOf[w] = make([][]Update[V], bins)
		}
	}

	// Binning phase.
	var wg sync.WaitGroup
	updates := make([]uint64, len(segs))
	for w := range segs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bs := binsOf[w]
			var n uint64
			src(segs[w].begin, segs[w].end, func(key uint32, val V) {
				if int(key) >= numKeys {
					if badKeys[w] < 0 {
						badKeys[w] = int64(key)
					}
					return
				}
				b := key >> shift
				bs[b] = append(bs[b], Update[V]{key, val})
				n++
			})
			updates[w] = n
		}(w)
	}
	wg.Wait()
	checkBad()
	for w := range segs {
		st.Updates += updates[w]
		for _, b := range binsOf[w] {
			st.BinBytes += uint64(cap(b)) * uint64(updateSize[V]())
		}
	}

	// Accumulate phase: bins processed in parallel, each bin's key range
	// disjoint from every other's. Within a bin, worker segments apply
	// in worker order for determinism.
	binCh := make(chan int, bins)
	for b := 0; b < bins; b++ {
		binCh <- b
	}
	close(binCh)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range binCh {
				for w := range binsOf {
					for _, u := range binsOf[w][b] {
						apply(u.Key, u.Val)
					}
				}
			}
		}()
	}
	wg.Wait()
	return st
}

// updateSize returns the exact in-memory byte size of an Update[V]
// (including alignment padding), resolved at compile time — so BinBytes
// reports real allocation footprints for every payload type (8 B for
// uint32 payloads, 16 B for uint64/float64, not a hardcoded estimate).
func updateSize[V any]() uintptr {
	return unsafe.Sizeof(Update[V]{})
}

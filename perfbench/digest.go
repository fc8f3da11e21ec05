package main

// Correctness witnesses. A digest covers a fixed, named set of
// sim.Metrics fields — cycles, phase cycles, counters, misses, DRAM
// lines — so fields added to Metrics later do not change it, while any
// change to what the simulator counts does.

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"cobra/internal/cpu"
	"cobra/internal/sim"
)

// digestMetrics hashes the named fields of ms, in order.
func digestMetrics(ms []sim.Metrics) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s|%s|%s|bins=%d|cores=%d\n", m.App, m.Input, m.Scheme, m.NumBins, m.Cores)
		fmt.Fprintf(&b, "cycles=%x init=%x bin=%x accum=%x\n",
			math.Float64bits(m.Cycles), math.Float64bits(m.InitCycles),
			math.Float64bits(m.BinCycles), math.Float64bits(m.AccumCycles))
		writeCounters(&b, "ctr", m.Ctr)
		writeCounters(&b, "binctr", m.BinCtr)
		writeCounters(&b, "accumctr", m.AccumCtr)
		fmt.Fprintf(&b, "miss=%d,%d,%d llcacc=%d dram=%d,%d,%d\n",
			m.L1Misses, m.L2Misses, m.LLCMisses, m.LLCAccesses,
			m.DRAM.ReadLines, m.DRAM.WriteLines, m.DRAM.PrefetchLines)
		for _, pm := range []sim.PhaseMem{m.BinMem, m.AccumMem} {
			fmt.Fprintf(&b, "phase=%d,%d,%d,%d,%d\n",
				pm.L1Misses, pm.L2Misses, pm.LLCMisses, pm.DRAMReadLines, pm.DRAMWriteLines)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func writeCounters(b *strings.Builder, name string, c cpu.Counters) {
	fmt.Fprintf(b, "%s=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n", name,
		c.Instructions, c.ALUOps, c.Loads, c.Stores, c.Branches, c.BranchMisses, c.BinUpdates,
		c.LoadsL1, c.LoadsL2, c.LoadsLLC, c.LoadsDRAM)
}

// reference holds the digests recorded for the default seed.
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadReference() (referenceFile, error) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("parsing reference.json: %w", err)
	}
	return ref, nil
}

// checkDigest compares a workload's digest with the stored reference
// when seed is the reference seed, and otherwise with the digest an
// earlier run of the same workload and seed left in dir (recording it
// if none did). With dir empty, other seeds are only checked within
// the run.
func checkDigest(c *checks, workload string, seed uint64, digest, dir string) {
	ref, err := loadReference()
	if err != nil {
		c.expect(false, "%v", err)
		return
	}
	if want, ok := ref.Digests[workload]; ok && seed == ref.Seed {
		c.expect(digest == want, "%s: metrics digest %s, reference %s for seed %d", workload, short(digest), short(want), seed)
		return
	}
	if dir == "" {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("digest-%s-seed%d.txt", workload, seed))
	if prev, err := os.ReadFile(path); err == nil {
		c.expect(string(prev) == digest, "%s: metrics digest %s, an earlier run with seed %d got %s", workload, short(digest), seed, short(string(prev)))
		return
	}
	if err := os.WriteFile(path, []byte(digest), 0o644); err != nil {
		c.expect(false, "recording digest: %v", err)
	}
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// checks counts correctness checks and keeps the first few failures.
type checks struct {
	attempted, failed int
	msgs              []string
}

// expect records one check; format describes the failure.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

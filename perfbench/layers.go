package main

// Per-layer derivations and probes. Everything here times public calls
// from outside or reads the program's own obsv phase timers; nothing is
// added inside the program.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cobra/internal/cache"
	"cobra/internal/cpu"
	"cobra/internal/exp"
	"cobra/internal/mem"
	"cobra/internal/obsv"
	"cobra/internal/sim"
)

// simLayers derives the sim.*, cpu.* and mem.* counts and timers of one
// traced pass: host ns per simulated update for each scheme phase (from
// the sim package's obsv phase timers), host ns per simulated
// instruction, per-core imbalance, and the simulated counts summed over
// the pass's results.
func simLayers(reg *obsv.Registry, ms []sim.Metrics, out map[string]float64) {
	snap := reg.Snapshot()
	sumS := func(name string) float64 { return snap[name].SumSeconds }

	// Per-core timers (multi-core runs) are "sim.<s>.core<k>.<phase>.wall";
	// the phase's wall is its slowest core, since the gang joins at a
	// barrier after every phase.
	coreMax := map[string]float64{} // "sim.<s>.<phase>" -> slowest core's total
	coreSum := map[string]float64{}
	coreN := map[string]int{}
	for name, v := range snap {
		scope, rest, ok := strings.Cut(name, ".core")
		if !ok || v.Kind != "histogram" {
			continue
		}
		num, phase, ok := strings.Cut(rest, ".")
		if _, err := strconv.Atoi(num); !ok || err != nil {
			continue
		}
		key := scope + "." + strings.TrimSuffix(phase, ".wall")
		coreSum[key] += v.SumSeconds
		coreN[key]++
		if v.SumSeconds > coreMax[key] {
			coreMax[key] = v.SumSeconds
		}
	}
	perUpdate := func(scope, phase string) float64 {
		updates := float64(snap[scope+".updates"].Count)
		if updates == 0 {
			return 0
		}
		wall := sumS(scope+"."+phase+".wall") + coreMax[scope+"."+phase]
		return wall * 1e9 / updates
	}
	out["sim.baseline.ns_per_update"] = perUpdate("sim.baseline", "accumulate")
	for _, s := range []string{"pbsw", "cobra"} {
		for _, p := range []string{"init", "binning", "accumulate"} {
			out["sim."+s+"."+p+".ns_per_update"] = perUpdate("sim."+s, p)
		}
	}
	for _, p := range []string{"binning", "accumulate"} {
		out["sim.phi."+p+".ns_per_update"] = perUpdate("sim.phi", p)
	}

	var slowest, mean float64
	for key, mx := range coreMax {
		slowest += mx
		mean += coreSum[key] / float64(coreN[key])
	}
	out["sim.shard_imbalance"] = 1
	if mean > 0 {
		out["sim.shard_imbalance"] = slowest / mean
	}

	var simWall float64
	for name, v := range snap {
		if strings.HasPrefix(name, "sim.") && strings.HasSuffix(name, ".wall") && strings.Count(name, ".") == 2 {
			simWall += v.SumSeconds
		}
	}
	var instr, brMiss, binUpd, l1, l2, llc, dram uint64
	var cycles float64
	for _, m := range ms {
		cycles += m.Cycles
		instr += m.Ctr.Instructions
		brMiss += m.Ctr.BranchMisses
		binUpd += m.Ctr.BinUpdates
		l1 += m.L1Misses
		l2 += m.L2Misses
		llc += m.LLCMisses
		dram += m.DRAM.ReadLines + m.DRAM.WriteLines
	}
	if instr > 0 {
		out["sim.ns_per_instr"] = simWall * 1e9 / float64(instr)
	}
	out["sim.cycles"] = cycles
	out["cpu.instructions"] = float64(instr)
	out["cpu.branch_misses"] = float64(brMiss)
	out["cpu.bin_updates"] = float64(binUpd)
	out["mem.l1_misses"] = float64(l1)
	out["mem.l2_misses"] = float64(l2)
	out["mem.llc_misses"] = float64(llc)
	out["mem.dram_lines"] = float64(dram)
}

// probeRefsPerApp caps how many updates of each app the replay probes
// take, so a probe costs well under a second per app.
const probeRefsPerApp = 1 << 19

// updateAddrs collects an app's irregular-update addresses (8-byte
// elements in one region, as the appliers lay out their data).
func updateAddrs(app *sim.App, limit int) []uint64 {
	addrs := make([]uint64, 0, min(limit, app.NumUpdates))
	app.ForEach(func(key uint32, _ uint64, _ bool) {
		if len(addrs) < limit {
			addrs = append(addrs, 1<<20+uint64(key)*8)
		}
	})
	return addrs
}

// replayProbes replays each app's update-address stream through the
// memory hierarchy's batch path, a bare L1 cache, and the core's
// micro-op buffer, each on fresh state, and reports host ns per
// reference / operation.
func replayProbes(tr *tracer, apps []*sim.App, out map[string]float64) {
	var batchNS, cacheNS, opbufNS float64
	var refs, cacheOps, opbufOps int
	for _, app := range apps {
		addrs := updateAddrs(app, probeRefsPerApp)

		end := tr.begin("probe.mem.access_batch")
		h := mem.New(mem.DefaultConfig())
		batch := make([]mem.Ref, 0, 256)
		var lv []mem.Level
		t0 := time.Now()
		for i, a := range addrs {
			batch = append(batch, mem.Ref{Addr: a, Kind: mem.RefLoad}, mem.Ref{Addr: a, Kind: mem.RefStore})
			if len(batch) == cap(batch) || i == len(addrs)-1 {
				lv = h.AccessBatch(batch, lv)
				batch = batch[:0]
			}
		}
		batchNS += float64(time.Since(t0))
		refs += 2 * len(addrs)
		end()

		end = tr.begin("probe.cache.access")
		c := cache.New(mem.DefaultConfig().L1)
		t0 = time.Now()
		for _, a := range addrs {
			c.Access(a, true)
		}
		cacheNS += float64(time.Since(t0))
		cacheOps += len(addrs)
		end()

		end = tr.begin("probe.cpu.opbuf")
		b := cpu.NewOpBuf(cpu.New(cpu.DefaultConfig(), mem.New(mem.DefaultConfig())))
		t0 = time.Now()
		for _, a := range addrs {
			b.Load(a)
			b.ALU(1)
			b.Store(a)
		}
		b.Flush()
		opbufNS += float64(time.Since(t0))
		opbufOps += 3 * len(addrs)
		end()
	}
	if refs > 0 {
		out["mem.access_batch.ns_per_ref"] = batchNS / float64(refs)
		out["cache.access.ns_per_op"] = cacheNS / float64(cacheOps)
		out["cpu.opbuf.ns_per_op"] = opbufNS / float64(opbufOps)
	}
}

// journalProbe times exp.OpenJournal plus n Record calls (each an
// fsync'd append) on a temp file: the durable-write cost a cold cobrad
// job pays once per scheme. Reports µs per record.
func journalProbe(tr *tracer, ms []sim.Metrics, n int, out map[string]float64) error {
	if len(ms) == 0 {
		return fmt.Errorf("journal probe: no metrics to record")
	}
	dir, err := os.MkdirTemp("", "perfbench-journal-")
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	defer os.RemoveAll(dir)
	end := tr.begin("probe.exp.journal")
	defer end()
	t0 := time.Now()
	j, err := exp.OpenJournal(filepath.Join(dir, "probe.jsonl"), false)
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	for i := 0; i < n; i++ {
		k := exp.CellKey{Figure: "probe", App: "probe", Input: "probe", Scale: i, Scheme: "Baseline"}
		if err := j.Record(k, ms[i%len(ms)]); err != nil {
			j.Close()
			return fmt.Errorf("journal probe: %w", err)
		}
	}
	el := time.Since(t0)
	if err := j.Close(); err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	out["exp.journal.record_us"] = float64(el.Microseconds()) / float64(n)
	return nil
}

// pairSpec is one (app, input) of a campaign.
type pairSpec struct{ app, input string }

// inputProbe times input generation and app construction separately:
// with the input memo emptied, the exp.Cached*Input generator calls,
// then exp.BuildApp on the now-cached inputs. Apps whose inputs the
// memo does not cover (IntSort, PINV) generate inside BuildApp.
func inputProbe(tr *tracer, pairs []pairSpec, scale int, seed uint64, out map[string]float64) error {
	exp.ResetMemos()
	matrix := map[string]bool{}
	for _, a := range exp.MatrixApps() {
		matrix[a] = true
	}
	var gen, build float64
	for _, p := range pairs {
		end := tr.begin("exp.input_gen")
		t0 := time.Now()
		var err error
		switch {
		case p.app == "IntSort" || p.app == "PINV":
		case matrix[p.app]:
			_, err = exp.CachedMatrixInput(p.input, scale, seed)
		default:
			_, err = exp.CachedGraphInput(p.input, scale, seed)
		}
		gen += time.Since(t0).Seconds()
		end()
		if err != nil {
			return fmt.Errorf("generating %s/%s: %w", p.app, p.input, err)
		}
		end = tr.begin("exp.build_app")
		t0 = time.Now()
		_, err = exp.BuildApp(p.app, p.input, scale, seed)
		build += time.Since(t0).Seconds()
		end()
		if err != nil {
			return fmt.Errorf("building %s/%s: %w", p.app, p.input, err)
		}
	}
	out["exp.input_gen_s"] = gen
	if _, ok := out["exp.build_app_s"]; !ok {
		out["exp.build_app_s"] = build
	}
	return nil
}

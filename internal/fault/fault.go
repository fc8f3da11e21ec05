// Package fault is a deterministic, zero-cost-when-disabled fault
// injection registry. Crash-safety code that is only ever exercised by
// the happy path is unproven; this package lets the test suite (and a
// human with an environment variable) schedule real failures — ENOSPC,
// EIO, short writes, failed fsyncs, torn renames, injected latency,
// even SIGKILL-ing the process mid-write — at named points threaded
// through the filesystem (fsx), checkpoint journal and cell store
// (exp), and service (srv) layers.
//
// Contract:
//
//   - Zero cost when disabled. The registry is an atomic pointer that
//     is nil until a plan is activated; Hit and Writer on the
//     disabled registry are a single atomic load plus a nil check —
//     no allocations, no map lookups, no clock reads (pinned by
//     TestDisabledFaultZeroAllocs and BenchmarkFaultHitDisabled).
//   - Deterministic. Whether the Nth hit of a point fires is a pure
//     function of (plan seed, point name, N): counters use exact hit
//     numbers, and probabilistic rules hash (seed, point, N) through
//     splitmix64 rather than sharing a mutable RNG stream. Replaying a
//     schedule replays the exact same faults, even under concurrency —
//     what varies across schedules is only which goroutine observes a
//     given hit number.
//   - Faults are visible. Every injected error wraps ErrInjected plus
//     a realistic payload (syscall.ENOSPC, syscall.EIO), so production
//     code classifies it exactly like the real failure while tests can
//     still tell injected faults from genuine ones.
//
// A plan is a set of rules, one per injection point:
//
//	exp.journal.sync:at=3:err=enospc            fail the 3rd journal fsync
//	fsx.write:every=2:err=short                 tear every 2nd artifact write
//	exp.cell.complete:p=0.1:err=eio             fail ~10% of cell completions
//	exp.journal.append:at=2:err=short:kill      tear the 2nd append, then SIGKILL
//	srv.queue.admit:at=1:delay=50ms             one slow admission, no error
//
// Rules are joined with ";". The chaos harness passes plans to child
// processes via the COBRA_FAULTS environment variable (seed via
// COBRA_FAULT_SEED), which cmd/figures and cmd/cobrad activate at
// startup through ActivateFromEnv.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Environment variables consulted by ActivateFromEnv.
const (
	Env     = "COBRA_FAULTS"     // plan spec ("point:mod:mod;point:mod")
	EnvSeed = "COBRA_FAULT_SEED" // uint64 seed for p= rules (default 1)
)

// Named injection points threaded through the tree. Any string works
// as a point name — these constants are the ones production code hits,
// kept here so plans and docs have one place to look.
const (
	// fsx.WriteFileAtomic stages: payload write, pre-publish fsync, and
	// the publishing rename. A fault at any of them must leave the
	// destination untouched.
	PointFsxWrite  = "fsx.write"
	PointFsxSync   = "fsx.sync"
	PointFsxRename = "fsx.rename"
	// Checkpoint journal appends and their fsync. A fault here may cost
	// at most the entry being appended (a torn tail) — never the prefix.
	PointJournalAppend = "exp.journal.append"
	PointJournalSync   = "exp.journal.sync"
	// Cell completion: every exp cell and streamed window hits it after
	// its run succeeds and before the cell store records the result. A
	// fault here discards the computed result (a cobrad job fails), and
	// the error is never cached.
	PointCellComplete = "exp.cell.complete"
	// Service queue admission: a fault rejects the job before it queues
	// (HTTP 500).
	PointSrvAdmit = "srv.queue.admit"
)

// Sentinels. Every injected error wraps ErrInjected; short writes also
// wrap ErrShortWrite plus syscall.ENOSPC (what a full disk reports for
// a partial write).
var (
	ErrInjected   = errors.New("fault: injected")
	ErrShortWrite = errors.New("fault: short write")
)

// payloads maps spec err= names onto realistic error values.
var payloads = map[string]error{
	"enospc": syscall.ENOSPC,
	"eio":    syscall.EIO,
	"closed": os.ErrClosed,
	"short":  fmt.Errorf("%w: %w", ErrShortWrite, syscall.ENOSPC),
}

// Rule schedules faults at one injection point. Exactly one trigger
// (At, Every, Prob) must be set; Times optionally caps total fires.
type Rule struct {
	Point string
	At    uint64        // fire exactly on the At-th hit (1-based)
	Every uint64        // fire on every Every-th hit
	Prob  float64       // fire on each hit with this probability
	Times uint64        // max total fires (0 = unlimited)
	Err   error         // injected payload (nil with Kill/Delay alone)
	Kill  bool          // SIGKILL the process at the fire point
	Delay time.Duration // sleep this long when firing

	hash  uint64 // fnv64a(Point), precomputed for the p= stream
	hits  atomic.Uint64
	fires atomic.Uint64
}

// validate checks a rule is well-formed and fills derived fields.
func (r *Rule) validate() error {
	if r.Point == "" {
		return errors.New("fault: rule without a point name")
	}
	triggers := 0
	if r.At > 0 {
		triggers++
	}
	if r.Every > 0 {
		triggers++
	}
	if r.Prob > 0 {
		triggers++
	}
	if triggers != 1 {
		return fmt.Errorf("fault: rule for %s needs exactly one trigger (at=, every= or p=), has %d", r.Point, triggers)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("fault: rule for %s: probability %v out of [0,1]", r.Point, r.Prob)
	}
	if r.Err == nil && !r.Kill && r.Delay <= 0 {
		return fmt.Errorf("fault: rule for %s has no effect (no err=, kill or delay=)", r.Point)
	}
	h := fnv.New64a()
	h.Write([]byte(r.Point))
	r.hash = h.Sum64()
	return nil
}

// firesAt decides — deterministically from (seed, point, n) — whether
// the n-th hit of this point fires.
func (r *Rule) firesAt(n, seed uint64) bool {
	switch {
	case r.At > 0:
		return n == r.At
	case r.Every > 0:
		return n%r.Every == 0
	case r.Prob > 0:
		return rand01(seed, r.hash, n) < r.Prob
	}
	return false
}

// splitmix64 is the standard 64-bit finalizing mixer: a bijective hash
// good enough to turn (seed, point, hit#) into an independent uniform
// draw without any shared RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rand01 maps (seed, point, n) to a uniform float64 in [0, 1).
func rand01(seed, point, n uint64) float64 {
	return float64(splitmix64(seed^point^(n*0x9E3779B97F4A7C15))>>11) / (1 << 53)
}

// Plan is an immutable set of rules plus the seed for probabilistic
// triggers. Built once (Parse or literal + Build), then activated; the
// rule map is read-only afterwards, so hits need no lock.
type Plan struct {
	Seed  uint64
	rules map[string]*Rule
}

// Build assembles a plan from rules (validating each). Seed 0 is
// normalized to 1 so "no seed given" is still deterministic.
func Build(seed uint64, rules ...*Rule) (*Plan, error) {
	if seed == 0 {
		seed = 1
	}
	p := &Plan{Seed: seed, rules: make(map[string]*Rule, len(rules))}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		if _, dup := p.rules[r.Point]; dup {
			return nil, fmt.Errorf("fault: duplicate rule for point %s", r.Point)
		}
		p.rules[r.Point] = r
	}
	return p, nil
}

// Parse builds a plan from the spec grammar documented in the package
// comment: ";"-separated rules, each "point:mod:mod...", with mods
// at=N, every=N, p=F, times=K, err=NAME, delay=DUR, kill — plus the
// standalone entry "seed=N".
func Parse(spec string) (*Plan, error) {
	var seed uint64
	var rules []*Rule
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if v, ok := strings.CutPrefix(entry, "seed="); ok && !strings.Contains(entry, ":") {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			seed = n
			continue
		}
		parts := strings.Split(entry, ":")
		r := &Rule{Point: parts[0]}
		for _, mod := range parts[1:] {
			key, val, hasVal := strings.Cut(mod, "=")
			var err error
			switch key {
			case "at":
				r.At, err = strconv.ParseUint(val, 10, 64)
			case "every":
				r.Every, err = strconv.ParseUint(val, 10, 64)
			case "p":
				r.Prob, err = strconv.ParseFloat(val, 64)
			case "times":
				r.Times, err = strconv.ParseUint(val, 10, 64)
			case "err":
				payload, ok := payloads[val]
				if !ok {
					return nil, fmt.Errorf("fault: unknown error payload %q (want one of %v)", val, payloadNames())
				}
				r.Err = payload
			case "delay":
				r.Delay, err = time.ParseDuration(val)
			case "kill":
				if hasVal {
					return nil, fmt.Errorf("fault: kill takes no value (got %q)", mod)
				}
				r.Kill = true
			default:
				return nil, fmt.Errorf("fault: unknown modifier %q in rule %q", mod, entry)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: bad %s in rule %q: %v", key, entry, err)
			}
		}
		rules = append(rules, r)
	}
	return Build(seed, rules...)
}

// payloadNames lists the err= spellings, sorted for stable errors.
func payloadNames() []string {
	names := make([]string, 0, len(payloads))
	for k := range payloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// injectedError is the concrete error Hit returns: it wraps both
// ErrInjected and the rule's payload, and carries the kill flag so
// Writer can tear a write *before* the process dies.
type injectedError struct {
	point string
	hit   uint64
	kill  bool
	err   error
}

func (e *injectedError) Error() string {
	return fmt.Sprintf("%v at %s (hit %d): %v", ErrInjected, e.point, e.hit, e.err)
}

func (e *injectedError) Is(target error) bool { return target == ErrInjected }

func (e *injectedError) Unwrap() error { return e.err }

// active is the whole enabled/disabled switch: nil means every
// injection point is inert.
var active atomic.Pointer[Plan]

// Activate installs a plan process-wide. Passing nil disables
// injection (same as Deactivate).
func Activate(p *Plan) { active.Store(p) }

// Deactivate disables all fault injection.
func Deactivate() { active.Store(nil) }

// ActivateFromEnv activates the plan described by the COBRA_FAULTS
// environment variable, if set. Returns whether a plan was activated.
func ActivateFromEnv() (bool, error) {
	spec := os.Getenv(Env)
	if spec == "" {
		return false, nil
	}
	p, err := Parse(spec)
	if err != nil {
		return false, err
	}
	if s := os.Getenv(EnvSeed); s != "" {
		seed, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return false, fmt.Errorf("fault: bad %s %q: %v", EnvSeed, s, err)
		}
		if seed != 0 {
			p.Seed = seed
		}
	}
	Activate(p)
	return true, nil
}

// Hit registers one arrival at the named injection point and returns
// the injected error if the point's schedule fires (killing the
// process first when the rule says so). With no plan active this is
// the zero-cost fast path: one atomic load, one nil check.
func Hit(point string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.hit(point)
}

func (p *Plan) hit(point string) error {
	r := p.rules[point]
	if r == nil {
		return nil
	}
	n := r.hits.Add(1)
	if !r.firesAt(n, p.Seed) {
		return nil
	}
	if fires := r.fires.Add(1); r.Times > 0 && fires > r.Times {
		return nil
	}
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r.Kill && !errors.Is(r.Err, ErrShortWrite) {
		// A raw kill point (or err+kill on a non-write site) dies right
		// here — the crash the chaos harness schedules. Short-write kills
		// are deferred to Writer so the torn bytes land first.
		Kill()
	}
	if r.Err == nil {
		return nil // pure delay rule
	}
	return &injectedError{point: point, hit: n, kill: r.Kill, err: r.Err}
}

// Kill terminates the process with SIGKILL — no deferred functions, no
// flushes, exactly like the OOM killer or a power cut. Exported for
// harnesses that need to die at a point of their own choosing.
func Kill() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // SIGKILL is asynchronous; never execute past it
}

// Fires reports how many times the named point actually fired.
func Fires(point string) uint64 {
	if p := active.Load(); p != nil {
		if r := p.rules[point]; r != nil {
			return r.fires.Load()
		}
	}
	return 0
}

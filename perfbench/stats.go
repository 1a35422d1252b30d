package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the percentiles a timing may be reported at, in
// increasing order.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tailPercentile picks the highest percentile that still has at least
// ten of n samples beyond it: p90 needs 100 samples, p99 1000. With
// fewer than 20 samples only the median qualifies, and with none the
// result is 0.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact in binary
			best = p
		}
	}
	if best == 0 && n > 0 {
		best = 50
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs; 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// runPath names how the runner executed one injection.
type runPath string

const (
	pathRecord     runPath = "record" // full run from pristine state, checkpoint captured at the PC
	pathReplay     runPath = "replay" // prefix replayed from the worker's checkpoint, live tail run
	pathSynth      runPath = "synth"  // Not Activated sibling synthesized without running
	pathArmed      runPath = "armed"  // armed fault model: full boot-to-outcome run
	pathQuarantine runPath = "quarantine"
)

// runEvent is one completed ordinal as the result sink saw it, in the
// order the sink received them.
type runEvent struct {
	Campaign    string
	Worker      int
	Ordinal     int
	PC          uint32 // activation PC (the target instruction address)
	Activated   bool
	Armed       bool // the fault model arms before the run instead of at a PC
	Quarantined bool
	// Fresh marks the first event of a worker whose runner was booted
	// anew just before it (its checkpoint cache is empty).
	Fresh bool
}

// derivePaths replays the runner's checkpoint-cache rule over a
// completion sequence: each worker keeps the checkpoint of the last PC
// it recorded, so a run at the same PC as the worker's previous run
// replays it (or, when that PC never activated, is synthesized), and a
// run at a new PC records. A quarantine leaves the worker on a freshly
// booted runner with an empty cache.
func derivePaths(evs []runEvent) []runPath {
	type cache struct {
		valid     bool
		pc        uint32
		activated bool
	}
	cur := map[int]*cache{}
	out := make([]runPath, len(evs))
	for i, e := range evs {
		c := cur[e.Worker]
		if c == nil || e.Fresh {
			c = &cache{}
			cur[e.Worker] = c
		}
		switch {
		case e.Quarantined:
			out[i] = pathQuarantine
			*c = cache{}
		case e.Armed:
			out[i] = pathArmed
		case c.valid && c.pc == e.PC:
			if c.activated {
				out[i] = pathReplay
			} else {
				out[i] = pathSynth
			}
		default:
			out[i] = pathRecord
			*c = cache{valid: true, pc: e.PC, activated: e.Activated}
		}
	}
	return out
}

// pcLocality is the share of runs whose worker's previous run had the
// same activation PC. A worker's first run, and the first run after it
// was handed a fresh runner, has no previous run and counts as not
// local.
func pcLocality(evs []runEvent) float64 {
	if len(evs) == 0 {
		return 0
	}
	last := map[int]uint32{}
	seen := map[int]bool{}
	local := 0
	for _, e := range evs {
		if e.Fresh {
			seen[e.Worker] = false
		}
		if seen[e.Worker] && last[e.Worker] == e.PC {
			local++
		}
		seen[e.Worker] = true
		last[e.Worker] = e.PC
	}
	return float64(local) / float64(len(evs))
}

// procSample is one reading of a process's cumulative CPU time and
// resident-memory high-water mark.
type procSample struct {
	CPUms  float64
	PeakKB int64
}

// treeUsage accumulates samples of every process of a process tree.
// CPU time and the high-water mark only grow over a process's life, so
// the largest reading of each pid is its total; the tree's usage is the
// sum of those totals over its pids.
type treeUsage struct {
	byPID map[int]procSample
}

func newTreeUsage() *treeUsage { return &treeUsage{byPID: map[int]procSample{}} }

// add folds one sample of pid into the accounting.
func (t *treeUsage) add(pid int, s procSample) {
	cur := t.byPID[pid]
	if s.CPUms > cur.CPUms {
		cur.CPUms = s.CPUms
	}
	if s.PeakKB > cur.PeakKB {
		cur.PeakKB = s.PeakKB
	}
	t.byPID[pid] = cur
}

// totals returns the summed CPU milliseconds and the summed peak RSS
// in KiB over every process seen.
func (t *treeUsage) totals() (cpuMS float64, peakKB int64) {
	for _, s := range t.byPID {
		cpuMS += s.CPUms
		peakKB += s.PeakKB
	}
	return cpuMS, peakKB
}

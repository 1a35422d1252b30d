package main

import (
	"math"
	"os"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{1, 50},
		{19, 50},
		{20, 50}, // p50 leaves 10 beyond it; p90 would leave 2
		{99, 50},
		{100, 90},
		{999, 90},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 4, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimeUnderOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "campaign", Start: 0, End: 100},
		// Two workers' runs overlap each other: their union is
		// [10,60) plus [70,90), 70 units.
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "run", Start: 20, End: 60},
		{ID: 4, Parent: 1, Name: "run", Start: 70, End: 90},
		// A child sticking out of its parent counts only inside it.
		{ID: 5, Parent: 4, Name: "put", Start: 85, End: 95},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 30, 2: 40, 3: 40, 4: 15, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	rows := whereTimeGoes(spans)
	if rows[0].Name != "run" || rows[0].Count != 3 || math.Abs(rows[0].SelfS-95e-9) > 1e-15 {
		t.Errorf("top row = %+v, want run x3 with 95ns self", rows[0])
	}
}

func TestUnderRootDropsProbes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "trial"},
		{ID: 2, Parent: 1, Name: "core.new"},
		{ID: 3, Name: "probe"},
		{ID: 4, Parent: 3, Name: "probe.record"},
		{ID: 5, Parent: 2, Name: "inner"},
	}
	got := underRoot(spans, "trial")
	if len(got) != 3 || got[2].ID != 5 {
		t.Fatalf("underRoot = %+v, want spans 1, 2 and 5", got)
	}
}

// evs builds run events from (worker, pc, activated) triples.
func evs(xs ...[3]int) []runEvent {
	out := make([]runEvent, len(xs))
	for i, x := range xs {
		out[i] = runEvent{Worker: x[0], Ordinal: i, PC: uint32(x[1]), Activated: x[2] == 1}
	}
	return out
}

func TestPCLocalityFromWorkerOrdinalSequence(t *testing.T) {
	// Serial: ordinals 0..3 at PCs 10,10,10,20 -> runs 1 and 2 follow
	// a run at the same PC.
	if got := pcLocality(evs([3]int{0, 10, 1}, [3]int{0, 10, 1}, [3]int{0, 10, 1}, [3]int{0, 20, 1})); got != 0.5 {
		t.Errorf("serial locality = %g, want 0.5", got)
	}
	// Two workers taking alternate ordinals of the same PCs: each
	// worker's previous run is two ordinals back.
	alt := evs([3]int{0, 10, 1}, [3]int{1, 10, 1}, [3]int{0, 20, 1}, [3]int{1, 20, 1}, [3]int{0, 20, 1}, [3]int{1, 30, 1})
	if got := pcLocality(alt); math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("alternating locality = %g, want 1/6", got)
	}
	// A fresh runner forgets the previous PC.
	fresh := evs([3]int{0, 10, 1}, [3]int{0, 10, 1})
	fresh[1].Fresh = true
	if got := pcLocality(fresh); got != 0 {
		t.Errorf("locality across a fresh runner = %g, want 0", got)
	}
	if got := pcLocality(nil); got != 0 {
		t.Errorf("locality of nothing = %g, want 0", got)
	}
}

func TestDerivePaths(t *testing.T) {
	seq := evs(
		[3]int{0, 10, 1}, // record, activates
		[3]int{0, 10, 1}, // replay
		[3]int{1, 10, 1}, // other worker: record
		[3]int{0, 20, 0}, // record, never activates
		[3]int{0, 20, 0}, // synthesized
		[3]int{0, 20, 0}, // quarantined
		[3]int{0, 20, 0}, // fresh runner after the quarantine: record
	)
	seq[5].Quarantined = true
	want := []runPath{pathRecord, pathReplay, pathRecord, pathRecord, pathSynth, pathQuarantine, pathRecord}
	got := derivePaths(seq)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %d: path %s, want %s", i, got[i], want[i])
		}
	}
	armed := evs([3]int{0, 0, 1}, [3]int{0, 0, 1})
	for i := range armed {
		armed[i].Armed = true
	}
	for i, p := range derivePaths(armed) {
		if p != pathArmed {
			t.Errorf("armed run %d: path %s", i, p)
		}
	}
}

func TestTreeUsageSumsPerProcessPeaks(t *testing.T) {
	u := newTreeUsage()
	// Repeated readings of one process keep its largest values: CPU
	// time and the high-water mark only grow, and a reading after exit
	// reads 0.
	u.add(100, procSample{CPUms: 50, PeakKB: 1000})
	u.add(100, procSample{CPUms: 120, PeakKB: 3000})
	u.add(100, procSample{CPUms: 0, PeakKB: 0})
	// Worker subprocesses add their own totals.
	u.add(200, procSample{CPUms: 400, PeakKB: 2000})
	u.add(201, procSample{CPUms: 380, PeakKB: 2500})
	cpu, peak := u.totals()
	if cpu != 900 || peak != 7500 {
		t.Errorf("totals = %g ms, %d KiB; want 900 ms, 7500 KiB", cpu, peak)
	}
}

func TestPooledRatesWeightStudiesByLength(t *testing.T) {
	ts := []trialResult{
		{runS: 1, results: 101, runResults: 100, cpuMS: 1000},
		{runS: 3, results: 101, runResults: 100, cpuMS: 3040},
		{runS: 0, results: 1, runResults: 0, cpuMS: 20}, // nothing after set-up: no rate, still costs CPU
	}
	if got := pooledRate(ts); got != 50 {
		t.Errorf("pooledRate = %g, want 200 results over 4 s = 50", got)
	}
	if got := pooledCPU(ts); got != 20 {
		t.Errorf("pooledCPU = %g, want 4060 ms over 203 results = 20", got)
	}
}

func TestMeanPeak(t *testing.T) {
	if got := meanPeak([]trialResult{{peakMB: 100}, {peakMB: 130}, {peakMB: 100}, {peakMB: 130}}); got != 115 {
		t.Errorf("meanPeak = %g, want 115", got)
	}
	if got := meanPeak(nil); got != 0 {
		t.Errorf("meanPeak of no trials = %g, want 0", got)
	}
}

func TestReadStatParsesOwnProcess(t *testing.T) {
	st, ok := readStat(os.Getpid())
	if !ok {
		t.Skip("no /proc")
	}
	if st.ppid != os.Getppid() || st.cpuMS < 0 {
		t.Errorf("readStat = %+v, want ppid %d", st, os.Getppid())
	}
	if readHWM(os.Getpid()) <= 0 {
		t.Errorf("no VmHWM for a live process")
	}
}

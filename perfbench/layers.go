package main

import (
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/unixbench"
	"repro/internal/wire"
)

// layerMetrics are the traced run's per-layer numbers by name.
type layerMetrics map[string]float64

// runSpan is one injection as seen from outside the scheduler: the
// interval from its worker's previous sink call to the sink call that
// delivered it.
type runSpan struct {
	span    span
	ev      runEvent
	path    runPath
	outcome inject.Outcome
	// timed is false when the interval also holds other work (a worker
	// boot, or a shard hand-over); such runs are counted but not timed.
	timed bool
}

// runLayout says how sink calls map onto workers and what else shares
// their intervals.
type runLayout struct {
	parents  map[string]int // campaign key -> parent span ("" = one parent for all)
	parallel bool           // in-process workers boot afresh for every campaign
	fleet    bool           // workers are pools; pools boot once and hand shards over
	shardOf  func(campaign string, ordinal int) int
	armed    bool
}

// buildRunSpans turns the sink's calls into spans: one run span and
// one journal.put span per ordinal, parented to the campaign (or fleet
// run) span.
func buildRunSpans(tr *tracer, ev []sinkEvent, lay runLayout) []runSpan {
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].Start < ev[j].Start })
	starts := map[int]int64{}
	for _, s := range tr.snapshot() {
		starts[s.ID] = s.Start
	}
	begun := map[string]int64{}  // campaign -> end of its BeginCampaign call
	prev := map[int]int64{}      // worker -> end of its previous sink call
	lastCamp := map[int]string{} // worker -> campaign of its previous call
	lastShard := map[int]int{}   // worker -> shard of its previous call
	var out []runSpan
	for _, e := range ev {
		if e.Kind == "begin" {
			begun[e.Campaign] = e.End
			continue
		}
		if e.Kind != "put" && e.Kind != "quarantine" {
			continue
		}
		parent, ok := lay.parents[e.Campaign]
		if !ok {
			parent = lay.parents[""]
		}
		from, seen := prev[e.Worker]
		name := ""
		fresh := false
		switch {
		case lay.fleet && !seen:
			from, name = starts[parent], "fleet.worker_start"
		case lay.fleet && lay.shardOf(e.Campaign, e.Ordinal) != lastShard[e.Worker]:
			name = "fleet.shard_turnover"
		case !lay.fleet && lastCamp[e.Worker] != e.Campaign:
			from = begun[e.Campaign]
			if lay.parallel {
				name = "core.worker_start"
				fresh = e.Worker > 0
			}
		}
		re := runEvent{
			Campaign: e.Campaign, Worker: e.Worker, Ordinal: e.Ordinal,
			PC: e.PC, Activated: e.Activated,
			Armed: lay.armed, Quarantined: e.Kind == "quarantine", Fresh: fresh,
		}
		out = append(out, runSpan{
			span:    span{Parent: parent, Name: name, Trace: traceID(e.Campaign, e.Ordinal), Start: from, End: e.Start},
			ev:      re,
			outcome: e.Outcome,
			timed:   name == "",
		})
		tr.add(parent, "journal."+e.Kind, traceID(e.Campaign, e.Ordinal), e.Start, e.End)
		prev[e.Worker] = e.End
		lastCamp[e.Worker] = e.Campaign
		if lay.fleet {
			lastShard[e.Worker] = lay.shardOf(e.Campaign, e.Ordinal)
		}
	}
	paths := derivePaths(eventsOf(out))
	for i := range out {
		out[i].path = paths[i]
		if out[i].span.Name == "" {
			out[i].span.Name = "inject." + string(paths[i])
		}
		out[i].span.ID = tr.add(out[i].span.Parent, out[i].span.Name, out[i].span.Trace, out[i].span.Start, out[i].span.End)
	}
	return out
}

func eventsOf(runs []runSpan) []runEvent {
	out := make([]runEvent, len(runs))
	for i, r := range runs {
		out[i] = r.ev
	}
	return out
}

// fromSink derives the run-level layers from the result sink's calls:
// set-up spans, per-path runs, the journal, the block cache and PC
// locality. It returns the run spans for workload-specific numbers.
func (lm layerMetrics) fromSink(tr *tracer, ev []sinkEvent, lay runLayout, dir string, results int, snap obs.Snapshot) []runSpan {
	lm.setupSpans(tr.snapshot())
	runs := buildRunSpans(tr, ev, lay)
	lm.runs(runs)
	lm.journal(ev, dir, results)
	lm.blocks(snap)
	if !lay.armed {
		lm["core.pc_locality"] = pcLocality(eventsOf(runs))
	}
	return runs
}

// setupSpans reads the set-up layers off their spans.
func (lm layerMetrics) setupSpans(spans []span) {
	for _, s := range spans {
		switch s.Name {
		case "kernprof.collect", "inject.golden_boot", "core.enumerate":
			lm[s.Name+"_s"] = float64(s.dur()) / 1e9
		case "analysis.save":
			lm["analysis.save_ms"] = float64(s.dur()) / 1e6
		}
	}
}

// runs fills the per-path counts, medians and busy time.
func (lm layerMetrics) runs(runs []runSpan) {
	ms := map[runPath][]float64{}
	var busy, hang float64
	activated, results := 0, 0
	for _, r := range runs {
		if r.path != pathQuarantine {
			results++
			if r.ev.Activated {
				activated++
			}
		}
		lm["inject."+string(r.path)+".count"]++
		if !r.timed {
			continue
		}
		d := float64(r.span.dur()) / 1e6
		ms[r.path] = append(ms[r.path], d)
		busy += d
		if r.outcome == inject.OutcomeHang {
			hang += d
		}
	}
	for _, p := range []runPath{pathRecord, pathReplay, pathSynth, pathArmed} {
		k := "inject." + string(p)
		lm[k+".count"] += 0
		lm[k+".ms_p50"] = median(ms[p])
		sum := 0.0
		for _, x := range ms[p] {
			sum += x
		}
		lm[k+".busy_s"] = sum / 1e3
	}
	delete(lm, "inject.quarantine.count")
	if busy > 0 {
		lm["inject.hang.busy_frac"] = hang / busy
	}
	if results > 0 {
		lm["inject.activated_frac"] = float64(activated) / float64(results)
	}
}

// journal fills the journal layer: append latency, flush latency
// (explicit flushes, campaign headers and the closing flush, each of
// which fsyncs) and bytes written per result.
func (lm layerMetrics) journal(ev []sinkEvent, dir string, results int) {
	var put, flush []float64
	for _, e := range ev {
		d := float64(e.End - e.Start)
		switch e.Kind {
		case "put":
			put = append(put, d/1e3)
		case "flush", "begin":
			flush = append(flush, d/1e6)
		}
	}
	lm["journal.put_us_p50"] = percentile(put, 50)
	lm["journal.put_us_p90"] = percentile(put, 90)
	lm["journal.flush_ms_p50"] = median(flush)
	if fi, err := os.Stat(filepath.Join(dir, "journal.kjnl")); err == nil && results > 0 {
		lm["journal.bytes_per_run"] = float64(fi.Size()) / float64(results)
	}
}

// blocks reads the superblock engine's hit rate off the metrics the
// study (or the fleet's workers, over the wire) fed.
func (lm layerMetrics) blocks(snap obs.Snapshot) {
	total := snap.BlockCacheHits + snap.BlockCacheMisses + snap.BlockFallbacks
	if total > 0 {
		lm["cpu.block_hit_frac"] = float64(snap.BlockCacheHits) / float64(total)
	}
}

// fleet fills the pool-level numbers: how busy the pools were over the
// fleet run, how long the first pool to run dry idled before the run
// ended, how long a worker took to deliver its first result, and what
// a synthesized ordinal costs end to end through the supervisor.
func (lm layerMetrics) fleet(runs []runSpan, spans []span, runSpanID, pools int) {
	var run span
	for _, s := range spans {
		if s.ID == runSpanID {
			run = s
		}
	}
	busy := 0.0
	last := map[int]int64{}
	var boots, synth []float64
	for _, r := range runs {
		if r.span.Name == "fleet.worker_start" {
			boots = append(boots, float64(r.span.dur())/1e9)
		} else {
			busy += float64(r.span.dur())
		}
		if r.timed && r.path == pathSynth {
			synth = append(synth, float64(r.span.dur())/1e3)
		}
		if r.span.End > last[r.ev.Worker] {
			last[r.ev.Worker] = r.span.End
		}
	}
	if run.dur() > 0 {
		lm["fleet.pool_busy_frac"] = busy / (float64(run.dur()) * float64(pools))
	}
	earliest := run.End
	for _, t := range last {
		earliest = min(earliest, t)
	}
	lm["fleet.tail_idle_s"] = float64(run.End-earliest) / 1e9
	lm["supervisor.worker_boot_s"] = median(boots)
	lm["supervisor.do_synth_us_p50"] = median(synth)
}

// probeCycles re-executes the first probeRuns targets of the study,
// serially, on the benchmark's own runner, and counts the guest cycles
// the interpreter executed for each: a recorded or armed run executes
// from the pristine snapshot, a replay from the checkpoint's cycle
// count, and a synthesized result executes none. The count is exact
// and repeats for a given seed.
func (lm layerMetrics) probeCycles(tr *tracer, s *core.Study) error {
	root := tr.open(0, "probe")
	defer tr.close(root)
	var r *inject.Runner
	boot := func() error {
		_, err := tr.time(root, "probe.boot", func() (err error) {
			r, err = inject.NewRunnerWithOptions(unixbench.Suite(unixbench.Scale(s.Cfg.Scale)), inject.RunnerOptions{Model: s.Model})
			return err
		})
		return err
	}
	if err := boot(); err != nil {
		return err
	}
	c0 := r.M.CPU.Cycles // the cycle counter at the pristine snapshot
	type ran struct {
		res        inject.Result
		start, end int64
		cycles     uint64
	}
	var (
		evs  []runEvent
		done []ran
	)
	armed := isArmed(s.Model)
	fresh := false
	for _, c := range s.Cfg.Campaigns {
		ts, err := s.Targets(c)
		if err != nil {
			return err
		}
		for _, t := range ts {
			if len(done) == probeRuns {
				break
			}
			start := tr.now()
			res, hf := r.SafeRunTarget(c, t)
			end := tr.now()
			if hf != nil {
				// The target harness-faults (the study quarantines or
				// retries it too); leave it out and continue on a
				// freshly booted runner, as the study does.
				if err := boot(); err != nil {
					return err
				}
				fresh = true
				continue
			}
			done = append(done, ran{res: res, start: start, end: end, cycles: r.M.CPU.Cycles})
			evs = append(evs, runEvent{PC: t.InstAddr, Activated: res.Activated, Armed: armed, Fresh: fresh})
			fresh = false
		}
	}
	paths := derivePaths(evs)
	var cycles, ns float64
	for i, d := range done {
		tr.add(root, "probe."+string(paths[i]), "", d.start, d.end)
		var exec uint64
		switch paths[i] {
		case pathSynth:
			continue
		case pathReplay:
			exec = d.cycles - d.res.ActivationCycle
		default:
			exec = d.cycles - c0
		}
		cycles += float64(exec)
		ns += float64(d.end - d.start)
	}
	if len(done) > 0 {
		lm["kernel.sim_mcycles_per_run"] = cycles / float64(len(done)) / 1e6
	}
	if cycles > 0 {
		lm["cpu.ns_per_kcycle"] = ns / (cycles / 1e3)
	}
	return nil
}

// goldenNsPerKcycle is the interpreter speed of the golden run. One
// golden run lasts a few milliseconds, so the figure is only a note;
// cpu.ns_per_kcycle, over the probe's 128 runs, is the calibration
// figure that lets results from two machines be compared as ratios.
// The golden run starts at the pristine snapshot, where a
// freshly booted runner's cycle counter stands.
func goldenNsPerKcycle(r *inject.Runner) float64 {
	k := float64(r.GoldenCycles-r.M.CPU.Cycles) / 1e3
	if k <= 0 {
		return 0
	}
	return float64(r.GoldenWall.Nanoseconds()) / k
}

// queueOps times the durable queue's lease and done-mark on a fresh
// queue holding the study's shard plan: one Acquire and one Complete
// per shard, in plan order, as a single pool drains it.
func (lm layerMetrics) queueOps(tr *tracer, sp trialSpec, totals map[string]int) error {
	root := tr.open(0, "probe.queue")
	defer tr.close(root)
	q, err := queue.Create(filepath.Join(sp.Dir, "probe-queue.kq"), sp.Study, queue.Shards(totals, shardSize))
	if err != nil {
		return err
	}
	defer q.Close()
	var acq, comp []float64
	for {
		start := tr.now()
		sh, ok := q.Acquire("probe")
		mid := tr.now()
		if !ok {
			break
		}
		if err := q.Complete(sh.ID); err != nil {
			return err
		}
		end := tr.now()
		tr.add(root, "queue.acquire", "", start, mid)
		tr.add(root, "queue.complete", "", mid, end)
		acq = append(acq, float64(mid-start)/1e3)
		comp = append(comp, float64(end-mid)/1e6)
	}
	lm["queue.acquire_us_p50"] = median(acq)
	lm["queue.complete_ms_p50"] = median(comp)
	return nil
}

// wireRoundTrips is how many run/result exchanges wireRTT times.
const wireRoundTrips = 400

// wireRTT times a run request and its result reply over a pair of
// pipes, the transport between a supervisor and its worker
// subprocesses. The reply carries a result of this study's shape.
func (lm layerMetrics) wireRTT(tr *tracer) error {
	root := tr.open(0, "probe.wire")
	defer tr.close(root)
	r1, w1, err := os.Pipe()
	if err != nil {
		return err
	}
	r2, w2, err := os.Pipe()
	if err != nil {
		r1.Close()
		w1.Close()
		return err
	}
	res := inject.Result{Campaign: inject.CampaignA, Outcome: inject.OutcomeCrash, Activated: true,
		OrigWindow: make([]byte, 16), CorruptWindow: make([]byte, 16)}
	peerDone := make(chan error, 1)
	go func() {
		defer w2.Close()
		defer r1.Close()
		peer := wire.NewConn(r1, w2)
		for {
			m, err := peer.Recv()
			if err == io.EOF {
				peerDone <- nil
				return
			}
			if err != nil {
				peerDone <- err
				return
			}
			if err := peer.Send(&wire.Msg{Type: wire.TypeResult, Campaign: m.Campaign, Ordinal: m.Ordinal, Result: &res}); err != nil {
				peerDone <- err
				return
			}
		}
	}()
	conn := wire.NewConn(r2, w1)
	var rtt []float64
	var sendErr error
	for i := 0; i < wireRoundTrips; i++ {
		start := tr.now()
		if sendErr = conn.Send(&wire.Msg{Type: wire.TypeRun, Campaign: "A", Ordinal: i}); sendErr != nil {
			break
		}
		if _, sendErr = conn.Recv(); sendErr != nil {
			break
		}
		end := tr.now()
		tr.add(root, "wire.round_trip", "", start, end)
		rtt = append(rtt, float64(end-start)/1e3)
	}
	w1.Close()
	peerErr := <-peerDone
	r2.Close()
	if sendErr != nil {
		return sendErr
	}
	if peerErr != nil {
		return peerErr
	}
	lm["wire.rtt_us_p50"] = median(rtt)
	return nil
}

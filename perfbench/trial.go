package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/inject"
	"repro/internal/journal"
	"repro/internal/kernprof"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/unixbench"
	"repro/internal/wire"
)

// trialSpec is everything a trial process is given: the study spec
// generated from the seed and how to run it.
type trialSpec struct {
	Study     wire.StudySpec
	Workers   int    // in-process workers, or local pools for a fleet
	Fleet     bool   // drive the study through internal/fleet
	Dir       string // scratch directory of this trial
	Trace     bool
	TraceFile string
	Kampaignd string // worker binary for fleet pools
	// SetupOnly cancels the in-process study once it has dispatched its
	// first injection: the trial measures set-up alone.
	SetupOnly bool
}

// trialOut is what a trial process reports on its last stdout line.
type trialOut struct {
	// BeginNS is the wall clock when set-up ended: when the first
	// injection was dispatched in process, or when the first result
	// reached the sink on the fleet, whose workers boot on their first
	// dispatch.
	BeginNS     int64
	SavedNS     int64 // wall clock when the result set was saved
	Attempted   int
	Results     int
	RunResults  int // results completed between BeginNS and SavedNS
	Quarantined int
	Recovered   int // harness faults a retry recovered
	ResultsPath string
	Layers      map[string]float64 `json:",omitempty"`
	Table       []layerRow         `json:",omitempty"`
	WallS       float64            `json:",omitempty"`
	Notes       []string           `json:",omitempty"`
}

// shardSize matches kampaignd's default -shard-size.
const shardSize = 16

// dispatchPoll is how often an in-process trial looks for its first
// dispatch.
const dispatchPoll = 250 * time.Microsecond

// probeRuns is how many targets the traced run re-executes serially on
// its own runner to count interpreted cycles exactly.
const probeRuns = 128

// runTrialProcess is the entry point of a trial subprocess.
func runTrialProcess(arg string) error {
	var sp trialSpec
	if err := json.Unmarshal([]byte(arg), &sp); err != nil {
		return fmt.Errorf("trial spec: %w", err)
	}
	var tr *tracer
	if sp.Trace {
		tr = newTracer()
	}
	var (
		out *trialOut
		err error
	)
	if sp.Fleet {
		out, err = runFleetTrial(sp, tr)
	} else {
		out, err = runInprocTrial(sp, tr)
	}
	if err != nil {
		return err
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// studyConfig builds the core configuration kinject derives from the
// same flags.
func studyConfig(st wire.StudySpec, workers int) (core.Config, error) {
	model, err := inject.ModelByName(st.FaultModel)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig()
	cfg.FaultModel = model.Name()
	cfg.Scale = st.Scale
	cfg.Seed = st.Seed
	cfg.MaxTargetsPerFunc = st.MaxTargetsPerFunc
	cfg.MaxFuncsPerCampaign = st.MaxFuncsPerCampaign
	cfg.Workers = workers
	cfg.MaxRetries = st.MaxRetries
	cs, err := analysis.ParseCampaigns(st.Campaigns)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Campaigns = cs
	return cfg, nil
}

func journalHeader(st wire.StudySpec) journal.Header {
	return journal.Header{
		Version:             journal.Version,
		Seed:                st.Seed,
		Scale:               st.Scale,
		Campaigns:           st.Campaigns,
		MaxTargetsPerFunc:   st.MaxTargetsPerFunc,
		MaxFuncsPerCampaign: st.MaxFuncsPerCampaign,
		FaultModel:          st.FaultModel,
	}
}

// traceSetup times the set-up layers one by one: the profiler and the
// golden boot are called directly (core.New calls both again inside),
// so their costs can be told apart. It returns the golden run's
// nanoseconds per 1000 guest cycles. Nothing it allocates outlives it:
// the study that follows must start from the heap an untraced trial
// starts from, or the garbage collector would pace it differently.
func traceSetup(tr *tracer, root int, cfg core.Config) (float64, error) {
	model, err := inject.ModelByName(cfg.FaultModel)
	if err != nil {
		return 0, err
	}
	ws := unixbench.Suite(unixbench.Scale(cfg.Scale))
	if _, err := tr.time(root, "kernprof.collect", func() error {
		_, err := kernprof.Collect(ws, 1<<40, 0)
		return err
	}); err != nil {
		return 0, err
	}
	var r *inject.Runner
	if _, err := tr.time(root, "inject.golden_boot", func() (err error) {
		r, err = inject.NewRunnerWithOptions(ws, inject.RunnerOptions{Model: model})
		return err
	}); err != nil {
		return 0, err
	}
	golden := goldenNsPerKcycle(r)
	r = nil
	runtime.GC()
	return golden, nil
}

// runInprocTrial runs the study in this process exactly as
// kinject -workers N -journal does.
func runInprocTrial(sp trialSpec, tr *tracer) (*trialOut, error) {
	cfg, err := studyConfig(sp.Study, sp.Workers)
	if err != nil {
		return nil, err
	}
	root := tr.open(0, "trial")
	var golden float64
	if tr != nil {
		if golden, err = traceSetup(tr, root, cfg); err != nil {
			return nil, err
		}
	}
	jw, err := journal.Create(filepath.Join(sp.Dir, "journal.kjnl"), journalHeader(sp.Study))
	if err != nil {
		return nil, err
	}
	defer jw.Close(nil)
	metrics := obs.New(cfg.Workers)
	jw.Metrics = metrics
	cfg.Metrics = metrics
	sink := newWatchSink(jw, tr)
	cfg.Sink = sink

	var s *core.Study
	if _, err := tr.time(root, "core.new", func() (err error) {
		s, err = core.New(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	out := &trialOut{}
	var totals map[string]int
	if _, err := tr.time(root, "core.enumerate", func() (err error) {
		totals, out.Attempted, err = enumerate(s)
		return err
	}); err != nil {
		return nil, err
	}
	// Set-up ends when a worker claims the first target. RunCampaign
	// boots and validates the extra workers first, so that is watched
	// for rather than assumed.
	if out.Attempted == 0 {
		return nil, errors.New("the study has no targets")
	}
	var cancel atomic.Bool
	if sp.SetupOnly {
		s.Cfg.Cancel = &cancel
	}
	began := make(chan int64, 1)
	go func() {
		for metrics.Snapshot().RunsStarted == 0 {
			time.Sleep(dispatchPoll)
		}
		cancel.Store(true)
		began <- time.Now().UnixNano()
	}()
	if sp.SetupOnly {
		if _, err := s.RunCampaign(s.Cfg.Campaigns[0]); !errors.Is(err, core.ErrCancelled) {
			return nil, fmt.Errorf("set-up only: study not cancelled after its first dispatch: %v", err)
		}
		out.BeginNS = <-began
		return out, nil
	}

	var ru0 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	campaignSpans := map[string]int{}
	for _, c := range s.Cfg.Campaigns {
		key := analysis.CampaignKey(c)
		campaignSpans[key] = tr.open(root, "core.run_campaign")
		_, err := s.RunCampaign(c)
		tr.close(campaignSpans[key])
		if err != nil {
			return nil, err
		}
	}
	var ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)

	snap := metrics.Snapshot()
	if _, err := tr.time(root, "journal.close", func() error { return jw.Close(&snap) }); err != nil {
		return nil, err
	}
	out.ResultsPath = filepath.Join(sp.Dir, "results.json.gz")
	if _, err := tr.time(root, "analysis.save", func() error { return s.Set.Save(out.ResultsPath) }); err != nil {
		return nil, err
	}
	out.SavedNS = time.Now().UnixNano()
	out.BeginNS = <-began
	fillCounts(out, s.Set, snap, s.Cfg.MaxRetries)
	out.RunResults = out.Results
	if tr == nil {
		return out, nil
	}
	tr.close(root)

	lm := layerMetrics{}
	runs := lm.fromSink(tr, sink.recorded(), runLayout{
		parents: campaignSpans, parallel: cfg.Workers > 1, armed: isArmed(s.Model),
	}, sp.Dir, out.Results, snap)
	busy := 0.0
	wall := 0.0
	for _, r := range runs {
		busy += float64(r.span.dur()) / 1e9
	}
	for _, sp := range tr.snapshot() {
		if sp.Name == "core.run_campaign" && sp.End > 0 {
			wall += float64(sp.dur()) / 1e9
		}
	}
	if wall > 0 && busy > 0 {
		lm["core.worker_busy_frac"] = busy / (wall * float64(max(cfg.Workers, 1)))
		lm["core.cpu_per_busy"] = (cpuSeconds(ru1) - cpuSeconds(ru0)) / busy
	}
	if err := finishTrace(tr, lm, golden, s, totals, sp, out); err != nil {
		return nil, err
	}
	return out, nil
}

// runFleetTrial assembles the kampaignd execution plane in this
// process — reference study, durable shard queue, merged journal and
// two pools of worker subprocesses — so each layer's calls can be
// timed from outside. Only the traced run uses it, for its traced
// trials and, with a nil tracer, for the untraced side of the tracing
// overhead; the end-to-end runs drive the real daemon.
func runFleetTrial(sp trialSpec, tr *tracer) (*trialOut, error) {
	cfg, err := studyConfig(sp.Study, 1)
	if err != nil {
		return nil, err
	}
	root := tr.open(0, "trial")
	var golden float64
	if tr != nil {
		if golden, err = traceSetup(tr, root, cfg); err != nil {
			return nil, err
		}
	}
	var s *core.Study
	if _, err := tr.time(root, "core.new", func() (err error) {
		s, err = core.New(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	out := &trialOut{}
	var totals map[string]int
	if _, err := tr.time(root, "core.enumerate", func() (err error) {
		totals, out.Attempted, err = enumerate(s)
		return err
	}); err != nil {
		return nil, err
	}
	shards := queue.Shards(totals, shardSize)
	var q *queue.Queue
	if _, err := tr.time(root, "queue.create", func() (err error) {
		q, err = queue.Create(filepath.Join(sp.Dir, "queue.kq"), sp.Study, shards)
		return err
	}); err != nil {
		return nil, err
	}
	defer q.Close()
	metrics := obs.New(0)
	q.Metrics = metrics
	q.SetLeaseTimeout(time.Minute)
	jpath := filepath.Join(sp.Dir, "journal.kjnl")
	jw, err := journal.Create(jpath, journalHeader(sp.Study))
	if err != nil {
		return nil, err
	}
	defer jw.Close(nil)
	jw.Metrics = metrics
	sink := newWatchSink(jw, tr)
	for _, c := range s.Cfg.Campaigns {
		if err := sink.BeginCampaign(c, totals[analysis.CampaignKey(c)]); err != nil {
			return nil, err
		}
	}
	pools := make([]fleet.PoolConfig, sp.Workers)
	for i := range pools {
		pools[i] = fleet.PoolConfig{
			Name:    fmt.Sprintf("pool%d", i),
			Workers: 1,
			Command: func() *exec.Cmd { return exec.Command(sp.Kampaignd, "-worker") },
		}
	}
	fl, err := fleet.New(fleet.Config{
		Spec:       sp.Study,
		GoldenFP:   s.Runner.GoldenFingerprint(),
		GoldenDisk: fmt.Sprintf("%x", s.Runner.GoldenDiskHash()),
		Totals:     totals,
		Pools:      pools,
		Metrics:    metrics,
	})
	if err != nil {
		return nil, err
	}
	runSpan := tr.open(root, "fleet.run")
	runErr := fl.Run(q, fleet.RunOptions{Sink: sink})
	tr.close(runSpan)
	if runErr != nil {
		return nil, runErr
	}
	snap := metrics.Snapshot()
	if _, err := tr.time(root, "journal.close", func() error { return jw.Close(&snap) }); err != nil {
		return nil, err
	}
	var set *analysis.ResultSet
	if _, err := tr.time(root, "journal.read", func() error {
		j, err := journal.Read(jpath)
		if err != nil {
			return err
		}
		if !j.Complete() {
			return errors.New("merged journal incomplete after queue drain")
		}
		set = j.ResultSet()
		return nil
	}); err != nil {
		return nil, err
	}
	out.ResultsPath = filepath.Join(sp.Dir, "results.json.gz")
	if _, err := tr.time(root, "analysis.save", func() error { return set.Save(out.ResultsPath) }); err != nil {
		return nil, err
	}
	out.SavedNS = time.Now().UnixNano()
	out.BeginNS = sink.first.Load()
	fillCounts(out, set, snap, 0)
	out.RunResults = out.Results - 1
	if tr == nil {
		return out, nil
	}
	tr.close(root)

	lm := layerMetrics{}
	runs := lm.fromSink(tr, sink.recorded(), runLayout{
		parents: map[string]int{"": runSpan}, fleet: true, shardOf: shardIndex(shards), armed: isArmed(s.Model),
	}, sp.Dir, out.Results, snap)
	lm.fleet(runs, tr.snapshot(), runSpan, sp.Workers)
	if err := finishTrace(tr, lm, golden, s, totals, sp, out); err != nil {
		return nil, err
	}
	return out, nil
}

// finishTrace runs the stand-alone layer measurements, computes the
// table and writes the spans out.
func finishTrace(tr *tracer, lm layerMetrics, golden float64, s *core.Study, totals map[string]int, sp trialSpec, out *trialOut) error {
	var wallS float64
	for _, x := range tr.snapshot() {
		if x.Name == "trial" {
			wallS = float64(x.dur()) / 1e9
		}
	}
	if err := lm.probeCycles(tr, s); err != nil {
		return err
	}
	if err := lm.queueOps(tr, sp, totals); err != nil {
		return err
	}
	if err := lm.wireRTT(tr); err != nil {
		return err
	}
	out.Notes = append(out.Notes, fmt.Sprintf("golden run, one boot of a few ms: %.1f ns per 1000 guest cycles (too short to calibrate by; cpu.ns_per_kcycle is the calibration figure)", golden))
	spans := tr.snapshot()
	out.Notes = append(out.Notes, tailNotes(spans)...)
	out.Layers = lm
	out.Table = whereTimeGoes(underRoot(spans, "trial"))
	out.WallS = wallS
	return writeSpans(sp.TraceFile, spans)
}

// fillCounts reads the outcome counts off the published set and the
// metrics snapshot. maxRetries is the in-process retry budget, 0 when
// retries happen out of sight in worker processes.
func fillCounts(out *trialOut, set *analysis.ResultSet, snap obs.Snapshot, maxRetries int) {
	for _, rs := range set.Results {
		out.Results += len(rs)
	}
	out.Quarantined = set.QuarantinedCount()
	if maxRetries > 0 {
		// Every quarantined ordinal used the full retry budget; any
		// retry beyond those recovered an ordinal that then succeeded.
		out.Recovered = max(0, int(snap.Retries)-maxRetries*out.Quarantined)
	}
}

// enumerate lists every campaign's targets, as the scheduler will, and
// returns the per-campaign totals and their sum.
func enumerate(s *core.Study) (map[string]int, int, error) {
	totals := map[string]int{}
	sum := 0
	for _, c := range s.Cfg.Campaigns {
		ts, err := s.Targets(c)
		if err != nil {
			return nil, 0, err
		}
		totals[analysis.CampaignKey(c)] = len(ts)
		sum += len(ts)
	}
	return totals, sum, nil
}

func isArmed(m inject.FaultModel) bool {
	_, ok := m.(inject.ArmedModel)
	return ok
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// shardIndex maps campaign:ordinal to the shard that holds it.
func shardIndex(shards []queue.Shard) func(campaign string, ordinal int) int {
	by := map[string][]queue.Shard{}
	for _, s := range shards {
		by[s.Campaign] = append(by[s.Campaign], s)
	}
	return func(campaign string, ordinal int) int {
		ss := by[campaign]
		i := sort.Search(len(ss), func(i int) bool { return ss[i].End > ordinal })
		if i < len(ss) {
			return ss[i].ID
		}
		return -1
	}
}

func traceID(campaign string, ordinal int) string {
	return campaign + ":" + fmt.Sprint(ordinal)
}

// trialDirName keeps scratch directory names readable.
func trialDirName(workload string, seed int64, k int, traced bool) string {
	name := fmt.Sprintf("%s-s%d-t%d", workload, seed, k)
	if traced {
		name += "-traced"
	}
	return name
}

// tailNotes reports every timed span name's median and its highest
// percentile with at least ten samples beyond it.
func tailNotes(spans []span) []string {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.dur())/1e6)
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		xs := by[n]
		if len(xs) < 2 {
			continue
		}
		p := tailPercentile(len(xs))
		out = append(out, fmt.Sprintf("%-24s n=%-6d p50 %10.4f ms   p%g %10.4f ms", n, len(xs), percentile(xs, 50), p, percentile(xs, p)))
	}
	return out
}

// underRoot keeps the spans descending from the root span of the given
// name, leaving out the stand-alone probes.
func underRoot(spans []span, root string) []span {
	in := map[int]bool{}
	var out []span
	for _, s := range spans { // parents are recorded before their children
		if (s.Parent == 0 && s.Name == root) || in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

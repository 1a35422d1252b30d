// Command perfbench is the repository's end-to-end benchmark: it runs
// one workload of the injection study for a fixed time, checks every
// published result set, and prints study-throughput metrics. With
// -trace 1 it instead reports per-layer numbers from a traced run.
//
// Run it from the repository root through its wrapper, which builds
// this package and kampaignd first:
//
//	bash perfbench/run.sh --workload bitflip-inproc --seed 2003 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// trialResult is the parent's view of one trial.
type trialResult struct {
	traced     bool
	setupS     float64 // launch to the end of set-up
	runS       float64 // end of set-up to saved result set
	results    int     // completed injections in the published set
	runResults int     // those completed within runS
	cpuMS      float64 // CPU time of the whole process tree
	peakMB     float64
	attempted  int
	failed     int
	out        *trialOut // traced trials only
}

// runsPerS is the rate at which results completed after set-up.
func (t trialResult) runsPerS() float64 {
	if t.runS <= 0 || t.runResults < 1 {
		return 0
	}
	return float64(t.runResults) / t.runS
}

type bench struct {
	w         workload
	seed      int64
	traced    bool
	stateDir  string // .perfbench in the checkout
	workDir   string
	self      string
	kampaignd string
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: bitflip-inproc, bitflip-fleet or syscall-errors")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	kampaignd := fs.String("kampaignd", "", "kampaignd binary (set by run.sh)")
	trial := fs.String("trial", "", "internal: run one trial from this JSON spec")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trial != "" {
		return runTrialProcess(*trial)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *kampaignd == "" {
		return fmt.Errorf("-kampaignd is required (run the benchmark through perfbench/run.sh)")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	stateDir, err := filepath.Abs(".perfbench")
	if err != nil {
		return err
	}
	kd, err := filepath.Abs(*kampaignd)
	if err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(stateDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	b := &bench{w: w, seed: *seed, traced: *trace == 1, stateDir: stateDir, workDir: workDir, self: self, kampaignd: kd}
	rep, err := b.measure(time.Duration(*seconds) * time.Second)
	if err != nil {
		return err
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// minTrials is the fewest trials one run takes, whatever its length:
// every reported number aggregates several trials, and a traced run
// needs at least one of each kind. A workload may ask for more.
const minTrials = 3

// setupProbes is how many extra set-ups an untraced run measures after
// its trials, one for each study of the rotation. Set-up is a fraction
// of a second, so a median over three trials would move with every
// hiccup of the machine.
const setupProbes = studyRotation

// measure runs trials until the time is up and aggregates them. A
// traced run alternates untraced and traced trials, so the two sides
// of the tracing-overhead ratio see the same machine conditions.
func (b *bench) measure(d time.Duration) (*report, error) {
	traced := b.traced
	printEnvironment()
	start := time.Now()
	var trials []trialResult
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	for k := 0; ; k++ {
		// A traced run pairs each traced trial with an untraced one on
		// the same study.
		tracedTrial, study := false, k
		if traced {
			tracedTrial, study = k%2 == 1, k/2
		}
		tr, err := b.trial(k, studySeed(b.seed, study), tracedTrial)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", k, err)
		}
		if tr.failed == tr.attempted && tr.attempted > 0 {
			rep.Correct = false
		}
		rep.Attempted += tr.attempted
		rep.Failed += tr.failed
		trials = append(trials, tr)
		fmt.Printf("trial %d (study seed %d)%s: setup %.3f s, %.2f runs/s, %.2f cpu ms/run, peak %.1f MB, %d attempted, %d failed\n",
			k, studySeed(b.seed, study), map[bool]string{true: " traced"}[tracedTrial], tr.setupS, tr.runsPerS(),
			tr.cpuMS/float64(max(tr.results, 1)), tr.peakMB, tr.attempted, tr.failed)
		if time.Since(start) >= d && len(trials) >= max(minTrials, b.w.minTrials) {
			break
		}
	}
	var plain, withTrace []trialResult
	for _, t := range trials {
		if t.traced {
			withTrace = append(withTrace, t)
		} else {
			plain = append(plain, t)
		}
	}
	setups := make([]float64, 0, len(plain)+setupProbes)
	for _, t := range plain {
		setups = append(setups, t.setupS)
	}
	if !traced {
		for k := 0; k < setupProbes; k++ {
			s, err := b.setupProbe(k, studySeed(b.seed, k))
			if err != nil {
				return nil, fmt.Errorf("set-up probe %d: %w", k, err)
			}
			setups = append(setups, s)
		}
		fmt.Printf("set-up probes (s): %.4f\n", setups[len(plain):])
	}
	fmt.Printf("\n%s seed %d: %d untraced trials and %d set-ups in %.1f s\n", b.w.name, b.seed, len(plain), len(setups), time.Since(start).Seconds())
	for _, m := range endToEnd {
		v := median(setups)
		if m.f != nil {
			v = m.f(plain)
		}
		fmt.Printf("  %-16s %12.4f %s\n", m.name, v, m.unit)
		if !traced && m.bounded {
			rep.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	if !traced {
		return rep, nil
	}

	layers := map[string][]float64{}
	for _, t := range withTrace {
		for k, v := range t.out.Layers {
			layers[k] = append(layers[k], v)
		}
	}
	ratio := pooledRate(withTrace) / pooledRate(plain)
	layers["trace.runs_per_s_ratio"] = []float64{ratio}
	last := withTrace[len(withTrace)-1].out
	fmt.Println()
	renderTable(os.Stdout, fmt.Sprintf("%s seed %d, last traced trial", b.w.name, b.seed), last.Table, last.WallS)
	fmt.Printf("\nper-layer metrics (median of %d traced trials; tracing overhead: traced/untraced runs_per_s = %.4f)\n", len(withTrace), ratio)
	for _, m := range perLayer {
		v := median(layers[m.name])
		rep.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("  %-28s %14.4f %-6s %s\n", m.name, v, m.unit, applies(m, b.w))
	}
	for _, n := range last.Notes {
		fmt.Println("  " + n)
	}
	return rep, nil
}

// trial runs one study end to end and checks what it published.
func (b *bench) trial(k int, seed int64, traced bool) (trialResult, error) {
	dir := filepath.Join(b.workDir, trialDirName(b.w.name, seed, k, traced))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return trialResult{}, err
	}
	defer os.RemoveAll(dir)
	var ru0 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	t0 := time.Now()
	var (
		tr    trialResult
		usage *treeUsage
		path  string
		err   error
	)
	if b.w.fleet && !b.traced {
		tr, usage, path, err = b.daemonTrial(dir, seed, t0)
	} else {
		tr, usage, path, err = b.processTrial(dir, seed, t0, traced)
	}
	if err != nil {
		return trialResult{}, err
	}
	var ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	usage.add(os.Getpid(), procSample{CPUms: (cpuSeconds(ru1) - cpuSeconds(ru0)) * 1e3, PeakKB: readHWM(os.Getpid())})
	cpuMS, peakKB := usage.totals()
	tr.cpuMS = cpuMS
	tr.peakMB = float64(peakKB) / 1024
	tr.traced = traced
	if _, err := checkSet(b.stateDir, path, b.w.spec(seed), b.w.study, tr.attempted); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: trial %d: correctness check failed: %v\n", k, err)
		tr.failed = tr.attempted
	}
	return tr, nil
}

// setupProbe measures one set-up alone: the in-process study stops
// where it would dispatch its first injection, and the daemon is
// stopped at its first result.
func (b *bench) setupProbe(k int, seed int64) (float64, error) {
	dir := filepath.Join(b.workDir, fmt.Sprintf("%s-s%d-setup%d", b.w.name, seed, k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	if b.w.fleet {
		return b.daemonSetup(dir, seed)
	}
	arg, err := json.Marshal(trialSpec{Study: b.w.spec(seed), Workers: b.w.workers, Dir: dir, SetupOnly: true})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	cmd := exec.Command(b.self, "-trial", string(arg))
	cmd.SysProcAttr = dieWithParent()
	cmd.Stderr = os.Stderr
	buf, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
	var out trialOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return 0, fmt.Errorf("set-up output %q: %w", lines[len(lines)-1], err)
	}
	return float64(out.BeginNS-t0.UnixNano()) / 1e9, nil
}

// processTrial runs the study in a child process of this binary, so
// each trial's memory and CPU are its own.
func (b *bench) processTrial(dir string, seed int64, t0 time.Time, traced bool) (trialResult, *treeUsage, string, error) {
	sp := trialSpec{
		Study: b.w.spec(seed), Workers: b.w.workers, Fleet: b.w.fleet,
		Dir: dir, Trace: traced, Kampaignd: b.kampaignd,
		TraceFile: filepath.Join(b.stateDir, "traces", filepath.Base(dir)+".jsonl"),
	}
	if traced {
		if err := os.MkdirAll(filepath.Dir(sp.TraceFile), 0o755); err != nil {
			return trialResult{}, nil, "", err
		}
	}
	arg, err := json.Marshal(sp)
	if err != nil {
		return trialResult{}, nil, "", err
	}
	cmd := exec.Command(b.self, "-trial", string(arg))
	cmd.SysProcAttr = dieWithParent()
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return trialResult{}, nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return trialResult{}, nil, "", err
	}
	smp := startSampler(cmd.Process.Pid)
	var lastLine string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		lastLine = sc.Text()
	}
	waitErr := cmd.Wait()
	usage := smp.finish()
	if waitErr != nil {
		return trialResult{}, nil, "", fmt.Errorf("trial process: %w", waitErr)
	}
	if !b.w.fleet {
		// The in-process study spawns nothing, so its rusage is exact.
		ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		smp.addExact(cmd.Process.Pid, ru)
	}
	var out trialOut
	if err := json.Unmarshal([]byte(lastLine), &out); err != nil {
		return trialResult{}, nil, "", fmt.Errorf("trial output %q: %w", lastLine, err)
	}
	tr := trialResult{attempted: out.Attempted, failed: out.Quarantined + out.Recovered, results: out.Results,
		runResults: out.RunResults, setupS: float64(out.BeginNS-t0.UnixNano()) / 1e9, runS: float64(out.SavedNS-out.BeginNS) / 1e9}
	if traced {
		tr.out = &out
	}
	return tr, usage, out.ResultsPath, nil
}

// pooledRate is the run's throughput over all its trials: results
// completed after each trial's set-up, over the summed time they took. A ratio of
// totals weights every study by its length, and varies less between
// runs than a median of per-study rates.
func pooledRate(ts []trialResult) float64 {
	var n, sec float64
	for _, t := range ts {
		if t.runResults > 0 {
			n += float64(t.runResults)
			sec += t.runS
		}
	}
	if sec <= 0 {
		return 0
	}
	return n / sec
}

// pooledCPU is the run's CPU milliseconds per completed injection over
// all its trials.
func pooledCPU(ts []trialResult) float64 {
	var ms, n float64
	for _, t := range ts {
		ms += t.cpuMS
		n += float64(t.results)
	}
	if n == 0 {
		return 0
	}
	return ms / n
}

// meanPeak is the mean of the trials' peak memory. A trial's peak
// depends on where the garbage collector ran relative to its largest
// allocation, and a study that reboots runners after harness faults
// peaks higher, so single trials read one of two levels; the mean
// moves less between runs than a median that flips between them.
func meanPeak(ts []trialResult) float64 {
	sum := 0.0
	for _, t := range ts {
		sum += t.peakMB
	}
	return sum / float64(max(len(ts), 1))
}

// printEnvironment states what the numbers were measured on.
func printEnvironment() {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	fmt.Printf("environment: %s, %d CPUs, %s\n", runtime.Version(), runtime.NumCPU(), model)
}

// endToEnd lists the untraced run's metrics, aggregated over the run's
// trials. failed_frac is printed only: it reads 0 on most studies, so
// it cannot carry a relative bound, and the report's attempted and
// failed fields hold it.
var endToEnd = []struct {
	name, unit string
	f          func([]trialResult) float64 // nil: median of the set-ups
	bounded    bool
}{
	{"setup_s", "s", nil, true},
	{"runs_per_s", "1/s", pooledRate, true},
	{"cpu_ms_per_run", "ms", pooledCPU, true},
	{"peak_rss_mb", "MB", meanPeak, true},
	{"failed_frac", "1", func(ts []trialResult) float64 {
		var f, a float64
		for _, t := range ts {
			f += float64(t.failed)
			a += float64(t.attempted)
		}
		return f / max(a, 1)
	}, false},
}

// layerMetric declares one per-layer metric and the workloads it
// describes.
type layerMetric struct {
	name, unit string
	only       string // "" = every workload; else the one workload kind it applies to
}

// perLayer is the traced run's metric list, in BENCHMARK.json order.
var perLayer = []layerMetric{
	{"kernprof.collect_s", "s", ""},
	{"inject.golden_boot_s", "s", ""},
	{"core.enumerate_s", "s", ""},
	{"supervisor.worker_boot_s", "s", "fleet"},
	{"inject.record.count", "count", "bitflip"},
	{"inject.record.ms_p50", "ms", "bitflip"},
	{"inject.record.busy_s", "s", "bitflip"},
	{"inject.replay.count", "count", "bitflip"},
	{"inject.replay.ms_p50", "ms", "bitflip"},
	{"inject.replay.busy_s", "s", "bitflip"},
	{"inject.synth.count", "count", "bitflip"},
	{"inject.synth.ms_p50", "ms", "bitflip"},
	{"inject.synth.busy_s", "s", "bitflip"},
	{"inject.armed.count", "count", "syscall"},
	{"inject.armed.ms_p50", "ms", "syscall"},
	{"inject.armed.busy_s", "s", "syscall"},
	{"inject.hang.busy_frac", "1", ""},
	{"inject.activated_frac", "1", ""},
	{"kernel.sim_mcycles_per_run", "Mcycles", ""},
	{"cpu.ns_per_kcycle", "ns", ""},
	{"cpu.block_hit_frac", "1", ""},
	{"core.pc_locality", "1", "bitflip"},
	{"core.worker_busy_frac", "1", "inproc"},
	{"core.cpu_per_busy", "1", "inproc"},
	{"journal.put_us_p50", "us", ""},
	{"journal.put_us_p90", "us", ""},
	{"journal.flush_ms_p50", "ms", ""},
	{"journal.bytes_per_run", "B", ""},
	{"wire.rtt_us_p50", "us", ""},
	{"supervisor.do_synth_us_p50", "us", "fleet"},
	{"queue.acquire_us_p50", "us", ""},
	{"queue.complete_ms_p50", "ms", ""},
	{"fleet.pool_busy_frac", "1", "fleet"},
	{"fleet.tail_idle_s", "s", "fleet"},
	{"analysis.save_ms", "ms", ""},
	{"trace.runs_per_s_ratio", "1", ""},
}

// applies notes a metric that the workload's execution plane never
// exercises; such a metric reads 0.
func applies(m layerMetric, w workload) string {
	ok := true
	switch m.only {
	case "fleet":
		ok = w.fleet
	case "inproc":
		ok = !w.fleet
	case "bitflip", "syscall":
		ok = w.study == m.only
	}
	if ok {
		return ""
	}
	return "(not exercised by " + w.name + ")"
}

package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/wire"
)

// defaultSeed is the study seed the digests are pinned for.
const defaultSeed = 2003

// bitflipTargetsPerFunc caps the bitflip study per selected function.
// The injector keeps that many of a function's targets, evenly spaced
// over all of them, so at a low cap they mostly sit at different
// instructions and few runs can reuse a checkpoint. At 8 (1,036 runs at
// seed 2003) about 9 % of runs replay or are synthesized, against 4 %
// at 3; a trial still takes about ten seconds.
const bitflipTargetsPerFunc = 8

// studyRotation is how many distinct studies a run cycles through.
// Trial k runs the study of studySeed(seed, k): the workload seed
// itself first, then seeds derived from it. Medians over several
// studies do not hinge on one study's mix of outcomes.
const studyRotation = 8

func studySeed(seed int64, k int) int64 {
	return seed + 1000*int64(k%studyRotation)
}

// syscallScale is the workload scale of the armed syscall study.
const syscallScale = 3

// workload is one benchmark input: a study spec derived from the seed
// and the execution plane that runs it.
type workload struct {
	name string
	// study is the digest key: workloads publishing the same study
	// must publish identical bytes.
	study   string
	workers int  // in-process workers, or local pools
	fleet   bool // run through a kampaignd daemon
	spec    func(seed int64) wire.StudySpec
	// minTrials raises the fewest trials a run takes. One study on
	// core's 2-worker in-process scheduler runs anywhere from about 70
	// to 220 runs/s from one process to the next (serially it varies by
	// a few percent), so a run pools more of those trials.
	minTrials int
}

func bitflipSpec(seed int64) wire.StudySpec {
	return wire.StudySpec{Seed: seed, Scale: 1, Campaigns: "ABC",
		MaxTargetsPerFunc: bitflipTargetsPerFunc, MaxRetries: core.DefaultMaxRetries}
}

func syscallSpec(seed int64) wire.StudySpec {
	campaigns := ""
	m, err := inject.ModelByName(inject.ModelSyscall)
	if err != nil {
		panic(err) // the model registry is compiled in
	}
	for _, c := range m.Campaigns() {
		campaigns += analysis.CampaignKey(c)
	}
	return wire.StudySpec{Seed: seed, Scale: syscallScale, Campaigns: campaigns,
		FaultModel: inject.ModelTag(m.Name()), MaxRetries: core.DefaultMaxRetries}
}

var workloads = []workload{
	{name: "bitflip-inproc", study: "bitflip", workers: 2, spec: bitflipSpec, minTrials: 6},
	{name: "bitflip-fleet", study: "bitflip", workers: 2, fleet: true, spec: bitflipSpec},
	{name: "syscall-errors", study: "syscall", workers: 1, spec: syscallSpec},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := ""
	for _, w := range workloads {
		names += " " + w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have:%s)", name, names)
}

// pinnedJSON maps seed -> study -> sha256 of the published result set,
// generated with the reference arm (-blocks=false -checkpoint=false).
//
//go:embed digests.json
var pinnedJSON []byte

func pinnedDigest(seed int64, study string) (string, bool, error) {
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return "", false, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := pins[strconv.FormatInt(seed, 10)][study]
	return d, ok, nil
}

// checkSet is the correctness gate for one published result set: it
// must load, account for every attempted ordinal, match the pinned
// digest when one exists for the study seed, and match what any
// earlier trial in this checkout published for the same study spec (so
// the two bitflip workloads must publish identical bytes).
func checkSet(stateDir, path string, spec wire.StudySpec, study string, attempted int) (string, error) {
	seed := spec.Seed
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	digest := hex.EncodeToString(sum[:])
	counts, err := loadCounts(path)
	if err != nil {
		return digest, err
	}
	if n := counts.results + counts.quarantined; n != attempted {
		return digest, fmt.Errorf("published set accounts for %d of %d attempted ordinals", n, attempted)
	}
	pin, ok, err := pinnedDigest(seed, study)
	if err != nil {
		return digest, err
	}
	if ok && pin != digest {
		return digest, fmt.Errorf("published set digest %s != pinned reference %s", digest, pin)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return digest, err
	}
	specSum := sha256.Sum256(specJSON)
	seen := filepath.Join(stateDir, "digests", hex.EncodeToString(specSum[:8]))
	if err := os.MkdirAll(filepath.Dir(seen), 0o755); err != nil {
		return digest, err
	}
	prev, err := os.ReadFile(seen)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return digest, writeFileAtomic(seen, []byte(digest))
	case err != nil:
		return digest, err
	case string(prev) != digest:
		return digest, fmt.Errorf("published set digest %s != %s published earlier for the same %s study spec", digest, prev, study)
	}
	return digest, nil
}

type setCounts struct{ results, quarantined int }

// loadCounts loads a published result set and counts its results and
// quarantined ordinals.
func loadCounts(path string) (setCounts, error) {
	set, err := analysis.Load(path)
	if err != nil {
		return setCounts{}, err
	}
	c := setCounts{quarantined: set.QuarantinedCount()}
	for _, rs := range set.Results {
		c.results += len(rs)
	}
	return c, nil
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

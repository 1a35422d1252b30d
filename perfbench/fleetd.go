package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/wire"
)

// The status is polled often until the first result, which ends
// set-up on the fleet, and then more slowly: every poll costs the
// daemon CPU that its workers would otherwise use.
const (
	pollSetup     = 5 * time.Millisecond
	pollRun       = 25 * time.Millisecond
	daemonTimeout = 150 * time.Second
)

// daemonStatus is the part of kampaignd's GET /campaigns/{id} body the
// benchmark reads. Progress.Done counts accounted ordinals; the
// daemon's Metrics.RunsCompleted stays 0 because its pools run
// injections in worker processes.
type daemonStatus struct {
	State    string
	Error    string
	Progress struct {
		Done  int64
		Total int
	}
}

// daemon is one running kampaignd with two local pools of one worker
// subprocess each, and the sampler that accounts for its process tree.
type daemon struct {
	cmd     *exec.Cmd
	smp     *treeSampler
	base    string
	client  *http.Client
	stopped bool
}

func (b *bench) startDaemon(dir string) (*daemon, error) {
	cmd := exec.Command(b.kampaignd, "-listen", "127.0.0.1:0", "-data", filepath.Join(dir, "data"),
		"-pools", fmt.Sprint(b.w.workers), "-pool-workers", "1", "-shard-size", fmt.Sprint(shardSize))
	cmd.SysProcAttr = dieWithParent()
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, smp: startSampler(cmd.Process.Pid), client: &http.Client{Timeout: 10 * time.Second}}
	addr, err := daemonAddr(stdout)
	if err != nil {
		d.stop()
		return nil, err
	}
	go io.Copy(io.Discard, stdout)
	d.base = "http://" + addr
	return d, nil
}

// stop ends the daemon and then waits for its worker subprocesses,
// which exit once their pipes close. It returns the daemon's exit
// error, and may be called more than once.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	d.smp.rescan()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		err = <-done
	}
	d.smp.waitDescendants(10 * time.Second)
	d.smp.finish()
	return err
}

// submit POSTs a study and returns its campaign id.
func (d *daemon) submit(spec wire.StudySpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := d.client.Post(d.base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	var sub struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	return sub.ID, nil
}

// waitFirst polls until the campaign's first result is accounted,
// which ends set-up on the fleet. The daemon boots a pool's worker
// only when the pool dispatches to it, so the first dispatch is not
// visible from outside and the first result stands for it.
func (d *daemon) waitFirst(id string, deadline time.Time) (time.Time, daemonStatus, error) {
	var st daemonStatus
	for {
		if time.Now().After(deadline) {
			return time.Time{}, st, errors.New("daemon campaign timed out")
		}
		if err := getJSON(d.client, d.base+"/campaigns/"+id, &st); err != nil {
			return time.Time{}, st, err
		}
		if st.Progress.Done > 0 || st.State == "complete" {
			return time.Now(), st, nil
		}
		if st.State == "failed" {
			return time.Time{}, st, fmt.Errorf("daemon campaign failed: %s", st.Error)
		}
		time.Sleep(pollSetup)
	}
}

// daemonSetup launches a daemon, submits the study and stops the
// daemon at its first result. It returns the set-up time.
func (b *bench) daemonSetup(dir string, seed int64) (float64, error) {
	t0 := time.Now()
	d, err := b.startDaemon(dir)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	id, err := d.submit(b.w.spec(seed))
	if err != nil {
		return 0, err
	}
	first, _, err := d.waitFirst(id, time.Now().Add(daemonTimeout))
	if err != nil {
		return 0, err
	}
	return first.Sub(t0).Seconds(), nil
}

// daemonTrial runs the study on a daemon, waits for the merged result
// set and fetches it.
func (b *bench) daemonTrial(dir string, seed int64, t0 time.Time) (trialResult, *treeUsage, string, error) {
	d, err := b.startDaemon(dir)
	if err != nil {
		return trialResult{}, nil, "", err
	}
	defer d.stop()
	id, err := d.submit(b.w.spec(seed))
	if err != nil {
		return trialResult{}, nil, "", err
	}
	deadline := time.Now().Add(daemonTimeout)
	first, st, err := d.waitFirst(id, deadline)
	if err != nil {
		return trialResult{}, nil, "", err
	}
	var saved time.Time
	for {
		if st.State == "complete" {
			saved = time.Now()
			break
		}
		if st.State == "failed" {
			return trialResult{}, nil, "", fmt.Errorf("daemon campaign failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			return trialResult{}, nil, "", errors.New("daemon campaign timed out")
		}
		time.Sleep(pollRun)
		if err := getJSON(d.client, d.base+"/campaigns/"+id, &st); err != nil {
			return trialResult{}, nil, "", err
		}
	}
	path := filepath.Join(dir, "results.json.gz")
	if err := fetch(d.client, d.base+"/campaigns/"+id+"/results", path); err != nil {
		return trialResult{}, nil, "", err
	}
	// The daemon is idle now: one last reading is its final usage, and
	// its workers have exited.
	d.smp.sampleNow()
	if err := d.stop(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			return trialResult{}, nil, "", err
		}
	}
	usage := d.smp.finish()

	set, err := loadCounts(path)
	if err != nil {
		return trialResult{}, nil, "", err
	}
	tr := trialResult{attempted: st.Progress.Total, failed: set.quarantined, results: set.results,
		runResults: set.results - 1, setupS: first.Sub(t0).Seconds(), runS: saved.Sub(first).Seconds()}
	return tr, usage, path, nil
}

// daemonAddr reads the daemon's listen address off its banner line.
func daemonAddr(r io.Reader) (string, error) {
	const banner = "kampaignd listening on http://"
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, banner) {
			return strings.TrimPrefix(line, banner), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("kampaignd exited before listening")
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func fetch(c *http.Client, url, path string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times on Linux.
const clockTicks = 100

const (
	sampleEvery = 20 * time.Millisecond
	rescanEvery = 10 // samples between scans of /proc for new descendants
)

// treeSampler tracks the CPU time and memory high-water mark of every
// process descended from one root. Worker subprocesses are not always
// reaped into their parent's rusage before it exits, so the tree is
// read from /proc while it runs.
type treeSampler struct {
	root  int
	mu    sync.Mutex
	usage *treeUsage
	known map[int]bool
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
}

func startSampler(root int) *treeSampler {
	s := &treeSampler{root: root, usage: newTreeUsage(), known: map[int]bool{root: true},
		stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *treeSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for i := 0; ; i++ {
		if i%rescanEvery == 0 {
			s.rescan()
		}
		s.sampleNow()
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
	}
}

// rescan adds every current descendant of the root to the known set.
func (s *treeSampler) rescan() {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return
	}
	kids := map[int][]int{}
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if st, ok := readStat(pid); ok {
			kids[st.ppid] = append(kids[st.ppid], pid)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	queue := []int{s.root}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		s.known[p] = true
		queue = append(queue, kids[p]...)
	}
}

// sampleNow reads every known process once.
func (s *treeSampler) sampleNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for pid := range s.known {
		st, ok := readStat(pid)
		if !ok {
			continue
		}
		s.usage.add(pid, procSample{CPUms: st.cpuMS, PeakKB: readHWM(pid)})
	}
}

// finish stops sampling and returns the accumulated usage. It may be
// called more than once.
func (s *treeSampler) finish() *treeUsage {
	s.once.Do(func() {
		close(s.stop)
		<-s.done
	})
	return s.usage
}

// waitDescendants waits until every process seen below the root has
// ended, and kills those still running after the timeout. Call it once
// the root has exited: its orphaned children are no longer anyone's
// to wait for.
func (s *treeSampler) waitDescendants(timeout time.Duration) {
	s.mu.Lock()
	var pids []int
	for pid := range s.known {
		if pid != s.root {
			pids = append(pids, pid)
		}
	}
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for _, pid := range pids {
		for {
			st, ok := readStat(pid)
			if !ok || st.state == 'Z' {
				break
			}
			if time.Now().After(deadline) {
				syscall.Kill(pid, syscall.SIGKILL)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// addExact folds a reaped process's exact rusage into the accounting.
// Use it only for a process that reaped no children of its own:
// wait4 charges reaped descendants to their parent.
func (s *treeSampler) addExact(pid int, ru *syscall.Rusage) {
	if ru == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usage.add(pid, procSample{CPUms: cpuSeconds(*ru) * 1e3, PeakKB: ru.Maxrss})
}

type procStat struct {
	state byte // 'Z' for an exited process not yet reaped
	ppid  int
	cpuMS float64
}

// readStat parses the parent pid and the process's own user+system
// CPU time from /proc/<pid>/stat.
func readStat(pid int) (procStat, bool) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return procStat{}, false
	}
	// The command name may hold spaces and parentheses; fields resume
	// after the last ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return procStat{}, false
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return procStat{}, false
	}
	ppid, err1 := strconv.Atoi(f[1])
	ut, err2 := strconv.ParseFloat(f[11], 64)
	st, err3 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return procStat{}, false
	}
	return procStat{state: f[0][0], ppid: ppid, cpuMS: (ut + st) * 1000 / clockTicks}, true
}

// readHWM returns the VmHWM (peak resident set) of a process in KiB,
// 0 when it has exited.
func readHWM(pid int) int64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fs := strings.Fields(line)
			if len(fs) >= 2 {
				n, _ := strconv.ParseInt(fs[1], 10, 64)
				return n
			}
		}
	}
	return 0
}

// dieWithParent makes a child process receive SIGKILL if the benchmark
// dies first, so an interrupted run leaves no daemon or study behind.
// Worker subprocesses then see their pipes close and exit on their own.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

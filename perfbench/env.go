package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is recorded beside every run's numbers.
type environment struct {
	gitRev     string // "none" outside a git work tree
	srcDigest  string // sha256 of the Go sources and go.mod files, 12 hex digits
	nproc      int
	gomaxprocs int
	goVersion  string
}

func (e environment) String() string {
	return fmt.Sprintf("git=%s src=%s nproc=%d gomaxprocs=%d go=%s",
		e.gitRev, e.srcDigest, e.nproc, e.gomaxprocs, e.goVersion)
}

// capProcs lowers GOMAXPROCS to the CPUs this process may run on.
func capProcs() {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
}

// readEnvironment describes the host and the code under test; root is
// the checkout the benchmark runs from.
func readEnvironment(root string) environment {
	e := environment{
		gitRev:     "none",
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		e.gitRev = strings.TrimSpace(string(out))
	}
	e.srcDigest = sourceDigest(root)
	return e
}

// sourceDigest hashes every .go and go.mod file under root (build
// output excluded), so a run outside git still names the code it
// measured.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

// cpuTimes reads the host-wide CPU counters of /proc/stat: the steal
// ticks and the total over all states. ok is false where the file is
// missing.
func cpuTimes() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the CPU-steal share over a window.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTimes()
	return stealMeter{s, t, ok}
}

// share returns the steal share since the meter started, or -1 when
// /proc/stat is unavailable.
func (m stealMeter) share() float64 {
	s, t, ok := cpuTimes()
	if !ok || !m.ok || t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// processCPU returns this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

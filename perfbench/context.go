package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// runContext stamps every result with what a noisy or surprising
// number is traced back to: the host's cores, the Go runtime's
// parallelism and version, the source revision, and the host's load
// before and after the run.
type runContext struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Load1      float64 `json:"load1_before"`
	Load1After float64 `json:"load1_after"`
}

func newRunContext(workload string, seed uint64, seconds int, trace bool) runContext {
	rev := os.Getenv("PERFBENCH_GIT_REV")
	if rev == "" {
		rev = "none"
	}
	return runContext{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     rev,
		Load1:      loadAvg1(),
	}
}

// loadAvg1 reads the host's 1-minute load average; -1 where
// /proc/loadavg is unavailable.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

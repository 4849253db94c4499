package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// stamp identifies the machine and build a result was measured on.
type stamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	LLC        string `json:"llc"`
	LLCBytes   int64  `json:"llc_bytes"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func takeStamp() stamp {
	st := stamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		LLC:        "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // a checkout without git metadata has none
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	st.LLC, st.LLCBytes = lastLevelCache()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	return st
}

// lastLevelCache reads the highest-level cache of CPU 0 from sysfs.
func lastLevelCache() (string, int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, size := -1, "unknown"
	for _, d := range dirs {
		lvl, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if l, err := strconv.Atoi(strings.TrimSpace(string(lvl))); err == nil && l > best {
			best, size = l, strings.TrimSpace(string(sz))
		}
	}
	n, err := strconv.ParseInt(strings.TrimSuffix(size, "K"), 10, 64)
	if err != nil || !strings.HasSuffix(size, "K") {
		return size, 0
	}
	return size, n << 10
}

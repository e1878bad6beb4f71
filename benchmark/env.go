package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is the record every result file carries, so that two files
// are only compared knowing what machine and build produced each.
type environment struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	L2Bytes    int64  `json:"l2_bytes"`
	LLCBytes   int64  `json:"llc_bytes"`
	// ChainBytes is chain_membound's four arrays together; the workload is
	// only DRAM-bound while they are at least four times the last-level cache.
	ChainBytes   int64 `json:"chain_membound_bytes"`
	ChainOverLLC bool  `json:"chain_membound_at_least_4x_llc"`
}

func readEnvironment(sz sizes) environment {
	e := environment{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		ChainBytes: 4 * 8 * int64(sz.chainN),
	}
	e.L2Bytes, e.LLCBytes = cacheSizes()
	e.ChainOverLLC = e.LLCBytes > 0 && e.ChainBytes >= 4*e.LLCBytes
	return e
}

// gitSHA is the commit measured: "unknown" in a checkout that is not a git
// repository, which is how the benchmark's driver runs it.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// cacheSizes reads cpu0's level-2 cache and its highest-level cache from
// sysfs; 0 means the size is not exposed.
func cacheSizes() (l2, llc int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	top := 0
	for _, d := range dirs {
		level, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil || readTrim(filepath.Join(d, "type")) == "Instruction" {
			continue
		}
		size := parseSize(readTrim(filepath.Join(d, "size")))
		if level == 2 {
			l2 = size
		}
		if level > top {
			top, llc = level, size
		}
	}
	return l2, llc
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize reads sysfs's "1280K" and "54M" forms.
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

func (e environment) String() string {
	pass := "FAIL"
	if e.ChainOverLLC {
		pass = "pass"
	}
	return fmt.Sprintf("commit %s, %s, nproc %d, GOMAXPROCS %d, %s, L2 %d KiB, LLC %d KiB\n"+
		"chain_membound arrays %d MiB >= 4x LLC: %s",
		e.GitSHA, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.L2Bytes>>10, e.LLCBytes>>10,
		e.ChainBytes>>20, pass)
}

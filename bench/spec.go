package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// metricDef is one metric of BENCHMARK.json. That file is the single list of
// metric names and units: the runner looks units up in it and refuses to emit
// a name it does not define, or to leave a defined name out.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkSpec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent (the
// checkout root, whether the program was started there or in bench/) and
// returns it with the root's path.
func loadSpec() (*benchmarkSpec, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &spec, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

// defs returns the metric list a run of the given kind reports.
func (s *benchmarkSpec) defs(traced bool) []metricDef {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// sysInfo records where a result was measured.
type sysInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func collectSysInfo() sysInfo {
	info := sysInfo{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					info.Commit += "+dirty"
				}
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		info.Kernel = string(b)
	}
	return info
}

// fsType names the filesystem holding dir: fsync on tmpfs prices the
// program's WAL path only, on a disk it prices the device too.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

package main

// The host stamp every record carries, and the comparison of two
// records, which is refused across hosts: the same metric moves
// 1.3–2.5× between machines.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// host identifies the machine and toolchain a record was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostStamp() host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// compare prints metric ratios between two records written with --out,
// refusing records from different hosts or workloads.
func compare(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	if err := comparable(recs[0], recs[1]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: refused:", err)
		return 2
	}
	fmt.Fprintf(out, "%-40s %14s %14s %9s\n", "metric", "base", "new", "new/base")
	for _, b := range recs[0].Metrics {
		for _, n := range recs[1].Metrics {
			if n.Name == b.Name && n.Unit == b.Unit {
				r := "-"
				if b.Value != 0 {
					r = fmt.Sprintf("%.3f", n.Value/b.Value)
				}
				fmt.Fprintf(out, "%-40s %14.6g %14.6g %9s\n", b.Name, b.Value, n.Value, r)
			}
		}
	}
	return 0
}

// comparable reports why two records may not be compared, if they may
// not.
func comparable(a, b record) error {
	if a.Host != b.Host {
		return fmt.Errorf("measured on different hosts: %+v vs %+v", a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Traced != b.Traced {
		return fmt.Errorf("different runs: %s/%gs/traced=%t vs %s/%gs/traced=%t",
			a.Workload, a.Seconds, a.Traced, b.Workload, b.Seconds, b.Traced)
	}
	return nil
}

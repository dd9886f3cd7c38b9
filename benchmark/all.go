package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runSet is what one invocation without --workload records: every
// workload run count times end to end and once traced, each run in a child
// process of its own so heap state and peak RSS do not leak from one to
// the next. It is the file -compare reads and results/ keeps.
type runSet struct {
	Schema    string                  `json:"schema"`
	Label     string                  `json:"label,omitempty"`
	Started   string                  `json:"started"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Count     int                     `json:"count"`
	Host      hostFacts               `json:"host"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

const runSetSchema = "rhik-bench/v2"

type hostFacts struct {
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"load_gomaxprocs"`
	WALFS      string  `json:"wal_fs"`
	StealPct   float64 `json:"steal_pct"` // over the whole set
}

type workloadSet struct {
	// EndToEnd[metric] are the values of the count runs, in seed order.
	EndToEnd map[string][]float64 `json:"end_to_end"`
	// PerLayer[metric] is the traced run's value.
	PerLayer  map[string]float64 `json:"per_layer"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
}

// runAll runs every workload in child processes and returns the set; ok is
// false when any run failed a check.
func runAll(cfg *runConfig, count int, label string) (*runSet, bool, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, false, err
	}
	set := &runSet{
		Schema: runSetSchema, Label: label, Started: time.Now().UTC().Format(time.RFC3339),
		Seed: cfg.seed, Seconds: cfg.seconds, Count: count,
		Host: hostFacts{
			NProc: runtime.NumCPU(), CPUModel: cpuModel(), GoVersion: runtime.Version(),
			GOMAXPROCS: loadProcs(), WALFS: fsType(cfg.outDir),
		},
		Workloads: map[string]*workloadSet{},
	}
	steal0 := readCPUTimes()
	ok := true
	for _, sp := range specs(cfg.div) {
		ws := &workloadSet{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		set.Workloads[sp.name] = ws
		for i := 0; i <= count; i++ {
			traced := i == count
			seed := cfg.seed + int64(i)
			if traced {
				seed = cfg.seed
			}
			line, notes, err := runChild(self, sp.name, seed, cfg, traced)
			if err != nil {
				return set, false, fmt.Errorf("%s (seed %d, trace %v): %w", sp.name, seed, traced, err)
			}
			for _, n := range notes {
				fmt.Printf("  %s: %s\n", sp.name, n)
				ws.Notes = append(ws.Notes, n)
			}
			if !line.Correct {
				ok = false
			}
			ws.Attempted += line.Attempted
			ws.Failed += line.Failed
			for name, mv := range line.Metrics {
				if traced {
					ws.PerLayer[name] = mv.Value
				} else {
					ws.EndToEnd[name] = append(ws.EndToEnd[name], mv.Value)
				}
			}
		}
		printWorkload(sp.name, ws)
	}
	set.Host.StealPct = stealPct(steal0, readCPUTimes())
	return set, ok, nil
}

// runChild runs one workload in a child process and parses the driver's
// JSON line off the end of its output; the lines before it that start
// with "# " are its notes.
func runChild(self, name string, seed int64, cfg *runConfig, traced bool) (driverLine, []string, error) {
	var line driverLine
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-out", cfg.outDir}
	if cfg.inProcServer {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return line, nil, err
	}
	if err := cmd.Start(); err != nil {
		return line, nil, err
	}
	trackChild(cmd.Process)
	raw, rerr := io.ReadAll(stdout)
	werr := cmd.Wait()
	untrackChild(cmd.Process)
	if rerr != nil {
		return line, nil, rerr
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var notes []string
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "# "); ok {
			notes = append(notes, rest)
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if werr != nil {
			return line, notes, fmt.Errorf("child: %w", werr)
		}
		return line, notes, fmt.Errorf("child printed no result line: %w", err)
	}
	// A child that printed a result and exited 1 failed a check: the set
	// records it and goes on.
	return line, notes, nil
}

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) (exclusive), which
// is what the driver uses.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of the 3 cut points
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), median(s), at(3)
}

func printWorkload(name string, ws *workloadSet) {
	fmt.Printf("%s  (%d requests, %d failed)\n", name, ws.Attempted, ws.Failed)
	for _, d := range endToEnd {
		q1, med, q3 := quartiles(ws.EndToEnd[d.name])
		fmt.Printf("  %-30s %14.4f %-7s  [q1 %.4f, q3 %.4f, n=%d]\n", d.name, med, d.unit, q1, q3, len(ws.EndToEnd[d.name]))
	}
	for _, d := range perLayer {
		fmt.Printf("  %-30s %14.4f %-7s\n", d.name, ws.PerLayer[d.name], d.unit)
	}
}

func writeRunSet(path string, set *runSet) error {
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if set.Schema != runSetSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, set.Schema, runSetSchema)
	}
	return &set, nil
}

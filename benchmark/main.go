// Command benchmark is the repository's one performance ledger: six named
// workloads, wall-clock and simulated-device metrics end to end, and a
// traced run that replays one client's requests at each layer boundary for
// per-layer cost. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process and print the driver's JSON line (empty: run all six, each in a child process)")
		seed         = flag.Int64("seed", 42, "seeds every generator; worker w uses seed+w")
		seconds      = flag.Float64("seconds", 10, "length of the timed window")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		smoke        = flag.Bool("smoke", false, "every workload at 1/50 size with an in-process server (what the test runs)")
		outDir       = flag.String("out", "out", "directory for span files, the kvserver binary and WAL scratch")
		count        = flag.Int("count", 1, "all-workload mode: end-to-end runs per workload, on seeds seed, seed+1, ...")
		jsonOut      = flag.String("json", "", "all-workload mode: write the run set to this file")
		label        = flag.String("label", "", "all-workload mode: free text stored in the run set (a commit, a host)")
		cmp          = flag.Bool("compare", false, "compare two run sets: -compare a.json b.json")
	)
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two run-set files"))
		}
		a, err := readRunSet(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readRunSet(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if compare(os.Stdout, a, b) > 0 {
			os.Exit(1)
		}
		return
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killChildren()
		os.Exit(130)
	}()

	cfg := &runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, div: 1, outDir: *outDir}
	if *smoke {
		cfg.div, cfg.inProcServer = 50, true
	}
	if *workloadName == "" {
		set, ok, err := runAll(cfg, *count, *label)
		if err != nil {
			fatal(err)
		}
		if *jsonOut != "" {
			if err := writeRunSet(*jsonOut, set); err != nil {
				fatal(err)
			}
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "benchmark: a correctness check failed; see the FAIL notes above")
			os.Exit(1)
		}
		return
	}
	sp, err := findSpec(*workloadName, cfg.div)
	if err != nil {
		fatal(err)
	}
	res, err := runWorkload(&sp, cfg)
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	killChildren()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// driverLine is the contract's result object: exactly these keys.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted uint64                  `json:"attempted"`
	Failed    uint64                  `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes a run's notes, its metrics one per line, and last
// the driver's JSON object.
func printResult(w io.Writer, res *result) {
	for _, n := range res.Notes {
		fmt.Fprintln(w, "#", n)
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", k, res.Metrics[k], unitOf(k))
		line.Metrics[k] = driverMetric{Value: res.Metrics[k], Unit: unitOf(k)}
	}
	out, _ := json.Marshal(line) // numbers, strings and bools: cannot fail
	fmt.Fprintln(w, string(out))
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

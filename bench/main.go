// Command bench is the repository's one fixed benchmark: five named
// workloads, each run end to end against an in-process four-replica cluster
// at GOMAXPROCS = nproc, with per-layer probes in a separate traced run.
// README.md in this directory describes workloads, metrics and usage;
// BENCHMARK.json at the repository root names them with units and bounds.
//
//	bench -workload null_mac -seed 1 -seconds 18 -trace 0   one run
//	bench -suite 10 -out A.jsonl                            10 runs per workload
//	bench -compare A.jsonl B.jsonl                          medians, change, verdict
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// scratch holds durable replica state, probe files and span dumps, inside
// the checkout the benchmark is run from (bench/run.sh builds there too).
const scratch = ".bench_build/runs"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: null_mac, null_sig, sql_acid, sql_read_mix, primary_crash")
		seed    = flag.Int64("seed", 1, "seed of the operation generators and the simulated network")
		seconds = flag.Float64("seconds", 18, "measured seconds (open phase + closed phase)")
		traced  = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		suite   = flag.Int("suite", 0, "run every workload (or only -workload) this many times, seeds seed, seed+1, ..., and write -out")
		out     = flag.String("out", "", "with -suite: the results file to write")
		compare = flag.Bool("compare", false, "compare two results files against the bounds in ./BENCHMARK.json: bench -compare A.jsonl B.jsonl")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare A.jsonl B.jsonl")
			break
		}
		err = compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case *suite > 0:
		err = runSuite(*name, *suite, *seed, *seconds, *traced, *out)
	default:
		err = runOne(*name, *seed, *seconds, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne performs one run and prints its result as the last line of
// standard output.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	fmt.Printf("bench: workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d nproc=%d %s\n",
		name, seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Println("bench: mem network, 938 Mbit/s egress model, zero injected delay: latency is processor time plus serialization")
	ob, err := run(runConfig{w: w, seed: seed, seconds: seconds, traced: traced, setups: minSetups, setupBudget: setupBudget, scratch: scratch})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: set-ups took %.4f s\n", ob.setupS)
	if traced {
		dir := filepath.Join(scratch, fmt.Sprintf("probes-%s-seed%d", name, seed))
		ob.probes, err = runProbes(dir)
		_ = os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	res := summarize(ob)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("run is incorrect: %d wrong replies (%s); digests: %v; verify: %v",
			ob.wrong, ob.wrongMsg, ob.digestErr, ob.verifyErr)
	}
	return nil
}

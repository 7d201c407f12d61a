package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// record is one line of a results file: a run's result with the arguments
// that produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// runSuite runs every workload (or only the named one) n times, each run its
// own process with its own seed, and writes one record per run to out.
func runSuite(only string, n int, seed int64, seconds float64, traced int, out string) error {
	if out == "" {
		return fmt.Errorf("-suite needs -out")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			rec := record{Workload: w.name, Seed: s, Trace: traced}
			if err := json.Unmarshal(lines[len(lines)-1], &rec.Result); err != nil {
				return fmt.Errorf("%s seed %d: last line is not a result: %w", w.name, s, err)
			}
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: correct=%v failed=%d/%d\n",
				w.name, s, rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted)
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return f.Close()
}

// spec is the part of BENCHMARK.json the benchmark itself reads: the
// comparison needs workloads and bounds, the tests the metric lists.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// readRecords groups a results file's metric values by workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Result.Correct || rec.Result.Failed > 0 {
			return nil, fmt.Errorf("%s: %s seed %d is incorrect or has failed requests; its numbers are not comparable",
				path, rec.Workload, rec.Seed)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the rule the benchmark's
// acceptance uses). Fewer than two values have no spread.
func quartileSpread(values []float64) float64 {
	v := sortedCopy(values)
	if len(v) < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := len(v) + 1
		j := min(max(i*m/4, 1), len(v)-1)
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return ratio(q(3)-q(1), quantile(v, 0.5))
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, how much B is worse than A, the bound, and a verdict. "worse"
// means beyond the bound; "unresolved" means either side's own spread is
// wider than the bound, so the medians cannot settle it. It fails when any
// row is worse.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tworse by\tbound\tA spread\tB spread\tverdict\t")
	worse := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t%.3f\t-\t-\tmissing\t\n", wl.Name, m.Name, m.Unit, m.Bound)
				continue
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma)
			if m.Better == "higher" {
				change = -change
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict = "worse"
				worse++
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%s\t\n",
				wl.Name, m.Name, m.Unit, ma, mb, change*100, m.Bound*100, sa*100, sb*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics are worse than their bound", worse)
	}
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) spec {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics requires got to hold exactly the metrics want names, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, kind string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", kind, len(got), len(want))
	}
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: name %q is outside the allowed alphabet", kind, m.Name)
		}
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: %s = %v", kind, m.Name, g.Value)
		}
	}
}

// TestWorkloads runs every workload of BENCHMARK.json once with short
// phases, traced, and checks that the run is correct, that nothing failed
// and that both metric sets are emitted exactly as BENCHMARK.json names
// them.
func TestWorkloads(t *testing.T) {
	sp := loadSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	probes, err := runProbes(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Last first: the crash workload is the longest and only two subtests
	// run at a time on the reference machine.
	for i := len(sp.Workloads) - 1; i >= 0; i-- {
		w := findWorkload(sp.Workloads[i].Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", sp.Workloads[i].Name)
		}
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.dataDir {
				t.Skip("fsync workload")
			}
			t.Parallel()
			seconds := 2.0
			if w.crash {
				seconds = 4 // plus the fault script's fixed minimums
			}
			ob, err := run(runConfig{w: w, seed: 7, seconds: seconds, traced: true, setups: 2, scratch: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			ob.probes = probes
			layers := summarize(ob)
			if !layers.Correct || layers.Failed != 0 || layers.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d: %v %v %s",
					layers.Correct, layers.Failed, layers.Attempted, ob.digestErr, ob.verifyErr, ob.wrongMsg)
			}
			checkMetrics(t, "per_layer", layers.Metrics, sp.PerLayer)
			if vc := layers.Metrics["core.view_changes"].Value; (vc != 0) != w.crash {
				t.Errorf("core.view_changes = %v", vc)
			}
			if w.crash && layers.Metrics["client.outage_ms"].Value <= 0 {
				t.Errorf("the crash left no outage")
			}
			// The end-to-end set is a function of the same observations.
			ob.cfg.traced = false
			e2e := summarize(ob)
			checkMetrics(t, "end_to_end", e2e.Metrics, sp.EndToEnd)
			for name, m := range e2e.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", name, m.Value)
				}
			}
		})
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1,2,...,10], n=4) = [2.75, 5.5, 8.25].
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Fatalf("one value has spread %v", got)
	}
}

func TestOutage(t *testing.T) {
	done := []int64{50, 10, 30, 100, 400, 410}
	if got := outageMs(done, 40); got != 300.0/1e6 {
		t.Fatalf("outage %v ms", got)
	}
	if got := outageMs(done, 0); got != 0 {
		t.Fatalf("no kill, outage %v", got)
	}
}

// TestCompare drives -compare over two small results files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	write := func(path, content string) {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(spec, `{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"lat","unit":"ms","better":"lower","bound":0.1},
		{"name":"tput","unit":"ops/s","better":"higher","bound":0.1}]}`)
	line := func(lat, tput float64) string {
		rec := record{Workload: "w", Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
			"lat": {lat, "ms"}, "tput": {tput, "ops/s"}}}}
		raw, _ := json.Marshal(rec)
		return string(raw) + "\n"
	}
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	write(a, line(1.00, 100)+line(1.01, 101)+line(0.99, 99))
	write(b, line(1.05, 80)+line(1.06, 81)+line(1.04, 79))
	var out bytes.Buffer
	err := compareFiles(&out, spec, a, b)
	if err == nil || !strings.Contains(out.String(), "worse") {
		t.Fatalf("a 20%% throughput loss must be reported worse; err=%v\n%s", err, out.String())
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 3 || !strings.HasSuffix(strings.TrimSpace(rows[1]), "ok") {
		t.Fatalf("a 5%% latency rise within a 10%% bound must be ok:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, a, a); err != nil {
		t.Fatalf("a file compared with itself: %v\n%s", err, out.String())
	}
}

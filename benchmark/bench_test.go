package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json, the metric
// registry and the workload table saying the same thing.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	sp := specs(1)
	if len(b.Workloads) != len(sp) {
		t.Fatalf("%d workloads declared, %d specs", len(b.Workloads), len(sp))
	}
	for i, w := range b.Workloads {
		if w.Name != sp[i].name || w.Why != sp[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the spec %q / %q", i, w.Name, w.Why, sp[i].name, sp[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the registry", len(b.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	setup := false
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, registry has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
		checkName(t, seen, m.Name, m.Unit)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the registry", len(b.PerLayer), len(perLayer))
	}
	if len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(b.PerLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, registry has %+v", i, m, d)
		}
		checkName(t, seen, m.Name, m.Unit)
		for _, mv := range d.moves {
			name, on, ok := strings.Cut(mv, "@")
			if !ok || unitOfEndToEnd(name) == "" {
				t.Errorf("%s moves %q: not metric@workload with an end-to-end metric", d.name, mv)
			}
			if _, err := findSpec(on, 1); err != nil {
				t.Errorf("%s moves %q: %v", d.name, mv, err)
			}
		}
	}
}

func unitOfEndToEnd(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

func checkName(t *testing.T, seen map[string]bool, name, unit string) {
	t.Helper()
	if !nameRE.MatchString(name) {
		t.Errorf("metric name %q is not 1-64 of [A-Za-z0-9_.-]", name)
	}
	if !unitRE.MatchString(unit) {
		t.Errorf("%s: unit %q is not 1-16 of [A-Za-z0-9_/%%.-]", name, unit)
	}
	if seen[name] {
		t.Errorf("metric name %q used twice", name)
	}
	seen[name] = true
}

// TestREADMENamesEverything: the README documents every workload and
// metric by name.
func TestREADMENamesEverything(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, s := range specs(1) {
		if !strings.Contains(text, "`"+s.name+"`") {
			t.Errorf("README.md does not name workload %s", s.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(text, "`"+d.name+"`") {
			t.Errorf("README.md does not name metric %s", d.name)
		}
	}
}

// TestSmoke runs every workload at 1/50 size, end to end and traced, with
// the wire workloads served by internal/server inside the test process,
// and checks what the driver would see.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	out := t.TempDir()
	for _, sp := range specs(50) {
		sp := sp
		for _, traced := range []bool{false, true} {
			cfg := &runConfig{seed: 42, seconds: 0.3, trace: traced, div: 50, outDir: out, inProcServer: true}
			res, err := runWorkload(&sp, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%q", sp.name, traced, res.Correct, res.Attempted, res.Failed, res.Notes)
			}

			// The last line of output is the driver's object, with exactly
			// the declared metrics of this mode.
			var buf bytes.Buffer
			printResult(&buf, res)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", sp.name, traced, err)
			}
			if len(line) != 4 {
				t.Errorf("%s trace=%v: result object has keys %v, want exactly correct, attempted, failed, metrics", sp.name, traced, keysOf(line))
			}
			var metrics map[string]driverMetric
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			if traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: declared metric %s missing", sp.name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: %s has unit %q, declared %q", sp.name, traced, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", sp.name, traced, name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, name, got.Value)
				}
			}
			for name := range metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", sp.name, traced, name)
				}
			}
			if traced {
				checkSpans(t, filepath.Join(out, sp.name+".spans.jsonl"), res.Metrics)
			}
		}
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	var k []string
	for key := range m {
		k = append(k, key)
	}
	return k
}

// checkSpans: the span file parses, every non-root span has its parent
// before it and in the same request, and self times add up to the
// outermost spans.
func checkSpans(t *testing.T, path string, m map[string]float64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type spanRec struct {
		ID      int    `json:"id"`
		Parent  int    `json:"parent"`
		Layer   string `json:"layer"`
		Kind    string `json:"kind"`
		Op      int    `json:"op"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	var spans []spanRec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		spans = append(spans, spanRec{})
		if err := json.Unmarshal(sc.Bytes(), &spans[len(spans)-1]); err != nil {
			t.Fatalf("%s line %d: %v", path, len(spans), err)
		}
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	self := map[string]float64{}
	var root float64
	for i, s := range spans {
		if s.ID != i {
			t.Fatalf("%s: span %d has id %d", path, i, s.ID)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d ends before it starts", path, i)
		}
		d := float64(s.EndNs - s.StartNs)
		self[s.Layer] += d
		if s.Parent < 0 {
			root += d
			continue
		}
		if s.Parent >= i {
			t.Fatalf("%s: span %d has parent %d, which is not before it", path, i, s.Parent)
		}
		p := spans[s.Parent]
		if p.Op != s.Op {
			t.Errorf("%s: span %d of request %d has parent %d of request %d", path, i, s.Op, s.Parent, p.Op)
		}
		self[p.Layer] -= d
	}
	var sum float64
	for _, v := range self {
		sum += v
	}
	if math.Abs(sum-root) > 0.10*root {
		t.Errorf("%s: self times sum to %.0f ns, outermost spans to %.0f ns", path, sum, root)
	}
	// The reported self times (timer cost taken off) add up the same way.
	var reported float64
	for name, v := range m {
		if strings.HasPrefix(name, "self.") {
			reported += v
		}
	}
	if rootPerOp := m["trace.root_ns_per_op"]; math.Abs(reported-rootPerOp) > 0.10*rootPerOp {
		t.Errorf("%s: reported self times sum to %.1f ns/op, trace.root_ns_per_op is %.1f", path, reported, rootPerOp)
	}
}

func TestHistPercentiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v)
	}
	for _, p := range []float64{50, 99, 99.9} {
		want := p / 100 * 100_000
		if got := h.percentile(p); math.Abs(got-want) > 0.02*want {
			t.Errorf("p%v = %.1f, want %.1f within 2 %%", p, got, want)
		}
	}
	if h.n != 100_000 || h.max != 100_000 {
		t.Errorf("n=%d max=%d", h.n, h.max)
	}
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<40 - 1, 1 << 50} {
		b := histBucket(v)
		lo, hi := histBounds(b)
		if b < histBuckets-1 && (float64(v) < lo || float64(v) >= hi) {
			t.Errorf("value %d in bucket %d = [%v, %v)", v, b, lo, hi)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	q1, med, q3 := quartiles(v)
	if q1 != 1.75 || med != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, Python gives 1.75 3.5 5.25", q1, med, q3)
	}
}

// TestStreamsWriteDisjointKeys: one writer per key, whatever the mix.
func TestStreamsWriteDisjointKeys(t *testing.T) {
	for _, sp := range specs(50) {
		owner := map[uint64]int{}
		for w := 0; w < sp.clients; w++ {
			st, err := newStream(sp, w, 7)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5000; i++ {
				o := st.next()
				if kindOf(o) != kindPut {
					continue
				}
				if prev, ok := owner[o.id]; ok && prev != w {
					t.Fatalf("%s: key %d written by clients %d and %d", sp.name, o.id, prev, w)
				}
				owner[o.id] = w
			}
		}
	}
	if err := checkKeyFormat(); err != nil {
		t.Error(err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(kops []float64) *runSet {
		return &runSet{Schema: runSetSchema, Workloads: map[string]*workloadSet{
			"lib-cold": {EndToEnd: map[string][]float64{"throughput_kops": kops}, PerLayer: map[string]float64{"core.frpg": 0.3}},
		}}
	}
	base := mk([]float64{100, 101, 99, 100, 100})
	for _, tc := range []struct {
		name string
		b    *runSet
		want string
		regs int
	}{
		{"same", mk([]float64{100, 100, 101, 99, 100}), " ok", 0},
		{"slower", mk([]float64{60, 61, 59, 60, 60}), " regressed", 1},
		{"noisy", mk([]float64{40, 160, 100, 70, 130}), " unresolved", 0},
	} {
		var buf bytes.Buffer
		if regs := compare(&buf, base, tc.b); regs != tc.regs {
			t.Errorf("%s: %d regressions, want %d\n%s", tc.name, regs, tc.regs, buf.String())
		}
		if !strings.Contains(buf.String(), tc.want) || !strings.Contains(buf.String(), "core.frpg") {
			t.Errorf("%s: want verdict %q and the layer metric core.frpg in\n%s", tc.name, tc.want, buf.String())
		}
	}
}

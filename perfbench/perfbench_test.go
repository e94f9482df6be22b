package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 0.4, trace: trace, smoke: true, outDir: t.TempDir()}
}

// TestEveryMetricEmitted runs each workload at smoke size, untraced and
// traced, and checks that the result names exactly the metrics
// BENCHMARK.json declares, each with its unit, and that every answer
// verified.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(smokeOptions(t, wl.Name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", wl.Name, trace, d.Name, m.Unit, d.Unit)
				}
				if !trace && ok && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestCorruptedReferenceFails checks that verification compares answers
// with the reference: one corrupted reference digest must fail the run.
func TestCorruptedReferenceFails(t *testing.T) {
	opts := smokeOptions(t, "serve-mix", false)
	w := newServeWorkload(serveMix)
	defer w.close()
	if _, err := w.setup(opts); err != nil {
		t.Fatal(err)
	}
	w.measure(opts, nil)
	if err := w.verify(); err != nil {
		t.Fatalf("clean run fails verification: %v", err)
	}
	for k, d := range w.ref.refs {
		d.sum ^= 1
		w.ref.refs[k] = d
		break
	}
	if err := w.verify(); err == nil {
		t.Fatal("a corrupted reference answer passed verification")
	}
}

// TestScanMatchesDigest checks the response scanner against a body with
// escapes and an empty answer.
func TestScanMatchesDigest(t *testing.T) {
	body := []byte(`{"query":"Q(X) <- R(X).","epoch":7,"rows":2,"attrs":["X","Y"],"tuples":[["a\"b","c"],["d","e"]],"cached":true}` + "\n")
	sc, err := scanQueryBody(body)
	if err != nil {
		t.Fatal(err)
	}
	var want digest
	want.add([][]byte{[]byte(`a"b`), []byte("c")})
	want.add([][]byte{[]byte("d"), []byte("e")})
	if sc.epoch != 7 || !sc.cached || sc.digest != want {
		t.Fatalf("scan = %+v, want epoch 7, cached, digest %+v", sc, want)
	}
	empty := []byte(`{"query":"q","epoch":1,"rows":0,"attrs":["X"],"tuples":[],"cached":false}`)
	if sc, err := scanQueryBody(empty); err != nil || sc.digest.rows != 0 {
		t.Fatalf("empty answer: %+v, %v", sc, err)
	}
}

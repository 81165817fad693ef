package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks the
// program against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeEveryWorkload runs every workload at 1/200 size, untraced and
// traced: no operation may fail and each run must print exactly the
// metrics BENCHMARK.json names, with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for trace, metrics := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		want := make([]string, len(metrics))
		for i, m := range metrics {
			want[i] = m.Name + " " + m.Unit
		}
		sort.Strings(want)
		for _, w := range spec.Workloads {
			var stdout bytes.Buffer
			args := []string{"-workload", w.Name, "-seed", "5", "-seconds", "0.2", "-scale", "200",
				"-trace", []string{"0", "1"}[trace], "-json", "-out", t.TempDir()}
			if code := run(args, &stdout); code != 0 {
				t.Fatalf("%v exited %d:\n%s", args, code, stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not the result object: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v failed=%d attempted=%d", args, res.Correct, res.Failed, res.Attempted)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%v printed\n%s\nwant\n%s", args, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}

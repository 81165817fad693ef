// Command bench is the repository's benchmark: five named workloads over
// the real entry points (ccidx.Create/Open/NewClassStore, internal/server
// over internal/shard on a loopback socket), seven end-to-end metrics per
// workload, and — with -trace 1 — a per-layer ladder that replays requests
// at successively lower entry points. It claims no gain; it is the ruler.
// See README.md for what every workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// workloadDef binds a workload name to its end-to-end run.
type workloadDef struct {
	name string
	run  func(p params) (*outcome, error)
}

var workloads = []workloadDef{
	{"query-hot", func(p params) (*outcome, error) { return runIndex(p, queryWorkload(p, hotFrames, 40000)) }},
	{"query-cold", func(p params) (*outcome, error) { return runIndex(p, queryWorkload(p, coldFrames, 20000)) }},
	{"ingest-mixed", func(p params) (*outcome, error) { return runIndex(p, ingestWorkload(p)) }},
	{"serve-http", runHTTP},
	{"class-query", runClass},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "all", "comma-separated workload names, or all")
	seed := fs.Int64("seed", 42, "seed of every generator")
	seconds := fs.Float64("seconds", 8, "length of each workload's measured phase")
	trace := fs.Int("trace", 0, "1 = record spans and report the per-layer metrics instead of the end-to-end ones")
	jsonOnly := fs.Bool("json", false, "print only the JSON result lines")
	scale := fs.Int("scale", 1, "divide every size by this (smoke runs)")
	outDir := fs.String("out", "out", "directory for span files and the run's scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workloadDef
	for _, name := range strings.Split(*names, ",") {
		found := false
		for _, w := range workloads {
			if name == "all" || name == w.name {
				selected = append(selected, w)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
	}
	if *scale < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -scale and -seconds must be positive")
		return 2
	}

	// Two OS threads run Go code whatever the machine has: the load is one
	// or two closed-loop clients, and the rest is the program's background
	// work (compaction, HTTP serving).
	runtime.GOMAXPROCS(2)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dataDir, err := os.MkdirTemp(*outDir, "data-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dataDir)

	report := stdout
	if *jsonOnly {
		report = io.Discard
	}
	fmt.Fprintf(report, "# ccidx benchmark: GOMAXPROCS=%d nproc=%d %s seed=%d seconds=%g scale=%d trace=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), *seed, *seconds, *scale, *trace)
	fmt.Fprintln(report, "# flush policy: FsyncCheckpoint, WAL on (the defaults) wherever the index is durable; closed loop")

	code := 0
	for _, w := range selected {
		p := params{seed: *seed, seconds: *seconds, scale: *scale, dataDir: dataDir, report: report}
		var out *outcome
		var err error
		if *trace != 0 {
			out, err = runTrace(p, w.name, *outDir)
		} else {
			out, err = w.run(p)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, m := range out.metrics {
			fmt.Fprintf(report, "%s/%s %.6g %s (n=%d)\n", w.name, m.name, m.value, m.unit, m.samples)
		}
		fmt.Fprintf(report, "%s: failed %d of %d attempted\n", w.name, out.failed, out.attempted)
		if out.failed > 0 {
			code = 1
		}
		fmt.Fprintln(stdout, resultLine(out))
	}
	return code
}

// resultLine is the machine-readable result the benchmark contract asks
// for as the last line of a single-workload run.
func resultLine(out *outcome) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(out.metrics))
	for _, m := range out.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // NaN or Inf in a metric: a bug in the harness
	}
	return string(line)
}

// Command perfbench is the ORB's benchmark: one process drives client and
// server ORBs over the host's loopback TCP with one of three seeded
// workloads, checks every reply, and prints end-to-end metrics (untraced)
// or a per-layer breakdown (traced).
//
// Usage:
//
//	perfbench -workload rpc-small|qos-bulk|qos-sessions -seed N
//	          -seconds S -trace 0|1 [-rate R] [-spans DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when any correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cool/internal/qos"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one benchmark workload.
type workload struct {
	run func(opts) *outcome
	// rungs returns the workload's inputs as the layer rungs see them.
	rungs func(seed int64) rungInputs
}

var workloads = map[string]workload{
	"rpc-small":    {runRPCSmall, rpcRungInputs},
	"qos-bulk":     {runQoSBulk, bulkRungInputs},
	"qos-sessions": {runQoSSessions, sessionRungInputs},
}

func rpcRungInputs(seed int64) rungInputs {
	in := rungInputs{sets: []qos.Set{rpcQoS()}, dacapoOff: true}
	for _, c := range rpcCalls(seed)[:256] {
		m := rungMsg{body: c.body}
		if c.qos {
			m.qos = rpcQoS()
		}
		in.msgs = append(in.msgs, m)
	}
	return in
}

func bulkRungInputs(seed int64) rungInputs {
	var in rungInputs
	enc := bulkQoS(seed, runtime.GOMAXPROCS(0))
	for _, e := range enc {
		in.sets = append(in.sets, bulkSet(e))
	}
	for i, b := range bulkBodies(seed) {
		in.msgs = append(in.msgs, rungMsg{body: b, qos: in.sets[i%len(in.sets)]})
	}
	return in
}

func sessionRungInputs(seed int64) rungInputs {
	var in rungInputs
	for _, e := range sessionMenu {
		in.sets = append(in.sets, e.set)
	}
	draws := sessionDraws(seed)
	for i, b := range sessionBodies(seed) {
		in.msgs = append(in.msgs, rungMsg{body: b, qos: sessionMenu[draws[i]].set})
	}
	return in
}

// setupRuns is the number of set-ups setup_s is the median of.
const setupRuns = 101

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "rpc-small, qos-bulk or qos-sessions")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown")
	rate := fs.Int("rate", 20000, "rpc-small open-loop arrivals per second")
	spans := fs.String("spans", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || *rate < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, rate %d, trace %d)\n", *name, *seconds, *rate, *trace)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := opts{seed: *seed, dur: time.Duration(*seconds) * time.Second, rate: *rate, setups: setupRuns, callers: runtime.GOMAXPROCS(0)}

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# traffic crosses the host's loopback TCP (127.0.0.1), not a real link; client and server ORBs share one process, GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))

	var res *outcome
	var defs []def
	var metrics map[string]metric
	if *trace == 0 {
		res = w.run(o)
		defs, metrics = e2eDefs, res.e2e
	} else {
		res = traced(w, o, filepath.Join(*spans, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed)), newTracer(), stdout)
		defs, metrics = layerDefs, res.layer
	}
	for _, d := range defs {
		if _, ok := metrics[d.name]; !ok {
			res.problem("metric %s was not measured", d.name)
		}
	}
	report(stdout, res, defs, metrics, *trace == 1)
	if len(res.problems) > 0 {
		for _, p := range res.problems {
			fmt.Fprintln(stderr, "perfbench: check failed:", p)
		}
		return 1
	}
	return 0
}

// traced runs the untraced and traced passes of w (half the time each),
// the layer rungs, and the path comparison, and writes the spans.
func traced(w workload, o opts, spansPath string, tr *tracer, stdout io.Writer) *outcome {
	o.dur /= 2
	o.tr = nil
	plain := w.run(o)
	o.tr = tr
	res := w.run(o)
	res.problems = append(plain.problems, res.problems...)
	res.attempted += plain.attempted
	res.failed += plain.failed
	stageLayer(res, tr)
	if err := runRungs(res, w.rungs(o.seed), tr); err != nil {
		res.problem("%v", err)
	}
	modulesLayer(res, tr)
	b := tr.acc("orb.bind")
	res.layer["orb.bind_us"] = metric{b.nsPer() / 1e3, "us", int(b.n.Load())}
	// The p99 is end-to-end: it comes from the untraced pass.
	res.layer["bench.p99_us"] = plain.layer["bench.p99_us"]
	res.notes = plain.notes
	u, t := plain.e2e["throughput_ops"].Value, res.e2e["throughput_ops"].Value
	res.layer["bench.trace_overhead_pct"] = metric{100 * (ratio(u, t) - 1), "%", 2}
	if err := samePath(plain.path, res.path); err != nil {
		res.problem("traced run took another path: %v", err)
	}
	if err := tr.write(spansPath); err != nil {
		res.problem("%v", err)
	} else {
		fmt.Fprintf(stdout, "# spans: %s (the last %d requests and %d decorator spans); %d requests complete, %d torn\n",
			spansPath, reqRing, spanRing, tr.complete.Load(), tr.torn.Load())
	}
	return res
}

// samePath compares the code-path evidence of two passes.
func samePath(a, b pathSig) error {
	if len(a.stacks) != len(b.stacks) {
		return fmt.Errorf("stacks %v vs %v", a.stacks, b.stacks)
	}
	for s := range a.stacks {
		if _, ok := b.stacks[s]; !ok {
			return fmt.Errorf("stacks %v vs %v", a.stacks, b.stacks)
		}
	}
	if a.inline != b.inline || a.threaded != b.threaded {
		return fmt.Errorf("segments inline %d/%d threaded %d/%d", a.inline, b.inline, a.threaded, b.threaded)
	}
	if (a.clientFlushMean > 1) != (b.clientFlushMean > 1) || (a.serverFlushMean > 1) != (b.serverFlushMean > 1) {
		return fmt.Errorf("flush batches client %.2f/%.2f server %.2f/%.2f", a.clientFlushMean, b.clientFlushMean, a.serverFlushMean, b.serverFlushMean)
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one line per metric, with its unit and sample count, and
// then the result line.
func report(w io.Writer, res *outcome, defs []def, metrics map[string]metric, layered bool) {
	for _, n := range res.notes {
		fmt.Fprintln(w, "#", n)
	}
	out := result{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		m, ok := metrics[d.name]
		if !ok {
			continue
		}
		if layered {
			fmt.Fprintf(w, "%-30s %14.4f %-7s n=%-9d moves %s on %s\n", d.name, m.Value, m.Unit, m.N, d.moves, d.on)
		} else {
			fmt.Fprintf(w, "%-30s %14.4f %-7s n=%d\n", d.name, m.Value, m.Unit, m.N)
		}
		out.Metrics[d.name] = jsonMetric{m.Value, m.Unit}
	}
	fmt.Fprintf(w, "%-30s %14.6f %-7s (%d failed of %d attempted)\n", "fail_ratio", ratio(float64(res.failed), float64(res.attempted)), "ratio", res.failed, res.attempted)
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed++
		out.Correct = false
	}
	b, err := json.Marshal(out)
	if err != nil {
		out.Correct = false
		b = []byte(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
	}
	fmt.Fprintln(w, string(b))
}

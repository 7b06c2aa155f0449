package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cool/internal/dacapo"
	"cool/internal/transport"
)

func TestSameSeedSameInputs(t *testing.T) {
	draw := func(seed int64) []float64 {
		var v []float64
		s := newSchedule(seed, 20000)
		for i := 0; i < 100; i++ {
			v = append(v, float64(s.next()))
		}
		for _, c := range rpcCalls(seed)[:100] {
			v = append(v, float64(len(c.body)), float64(c.body[0]))
			if c.qos {
				v = append(v, -1)
			}
		}
		for _, b := range bulkBodies(seed) {
			v = append(v, float64(len(b)))
		}
		for _, e := range bulkQoS(seed, 8) {
			if e {
				v = append(v, -2)
			}
		}
		for _, d := range sessionDraws(seed)[:100] {
			v = append(v, float64(d))
		}
		for _, b := range sessionBodies(seed) {
			v = append(v, float64(len(b)))
		}
		return v
	}
	a, b, c := draw(7), draw(7), draw(8)
	if len(a) != len(b) {
		t.Fatalf("same seed drew %d and %d values", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds drew the same inputs")
	}
}

func TestInputRanges(t *testing.T) {
	for _, c := range rpcCalls(3) {
		if n := len(c.body); n < 16 || n > 2048 {
			t.Fatalf("rpc-small payload of %d bytes", n)
		}
	}
	for _, b := range bulkBodies(3) {
		if n := len(b); n < 16<<10 || n > 64<<10 {
			t.Fatalf("qos-bulk payload of %d bytes", n)
		}
	}
	s := newSchedule(3, 20000)
	var last time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		last = s.next()
	}
	if rate := n / last.Seconds(); math.Abs(rate-20000) > 600 {
		t.Fatalf("schedule rate %.0f/s, want about 20000/s", rate)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 samples beyond rank 990
		{999, 0.99, 0, false},   // 9 beyond
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	} {
		v, err := percentile(sample(tc.n), tc.q)
		if tc.ok && (err != nil || v != tc.want) {
			t.Errorf("p%.0f of %d samples = %v, %v; want %v", tc.q*100, tc.n, v, err, tc.want)
		}
		if !tc.ok && !errors.Is(err, errTooFewSamples) {
			t.Errorf("p%.0f of %d samples = %v, %v; want refusal", tc.q*100, tc.n, v, err)
		}
	}
	start := time.Now()
	w := newWindows(start, 2*window)
	for i, v := range sample(500) {
		w.add(start.Add(time.Duration(i)*window/500), v, 1)
	}
	out := newOutcome()
	w.report(out)
	if _, ok := out.layer["bench.p99_us"]; ok || len(out.problems) != 1 {
		t.Fatalf("500 samples gave a p99: %v, problems %v", out.layer, out.problems)
	}
	if m := out.e2e["p50_us"]; m.Value != 250 || m.N != 500 {
		t.Fatalf("p50 %+v, want 250 over 500 samples", m)
	}
}

func TestDecoratorsKeepExtensions(t *testing.T) {
	tr := newTracer()
	m := newTManager(transport.NewTCPManager(), tr, newWireStats(tr), false)
	l, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Channel, 1)
	go func() {
		ch, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- ch
	}()
	ch, err := m.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	if srv := <-accepted; srv != nil {
		defer srv.Close()
	}
	b, ok := transport.AsBatchChannel(ch)
	if !ok || any(b) != any(ch) {
		t.Fatalf("AsBatchChannel unwrapped past the decorator: %T", b)
	}
	if _, ok := ch.(transport.ChannelUnwrapper); !ok {
		t.Fatal("decorated channel does not forward Unwrap")
	}
	if _, err := ch.SetQoSParameter(bulkSet(false)); !errors.Is(err, transport.ErrQoSNotSupported) {
		t.Fatalf("SetQoSParameter not forwarded: %v", err)
	}
	if _, ok := transport.Manager(m).(transport.ContextDialer); !ok {
		t.Fatal("decorated manager is not a ContextDialer")
	}
	lib := tracedLibrary(tr)
	for name, blocking := range map[string]bool{"window": true, "crc32": false, "xorcipher": false} {
		mod, err := lib.Build(name, dacapo.Args{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := mod.(dacapo.Blocker); ok != blocking {
			t.Errorf("%s: Blocker %v after wrapping, want %v", name, ok, blocking)
		}
	}
}

// smoke runs one workload briefly, untraced and traced, and fails on any
// correctness problem or missing metric.
func smoke(t *testing.T, name string) (plain, res *outcome, tr *tracer) {
	t.Helper()
	w := workloads[name]
	o := opts{seed: 5, dur: 2 * time.Second, rate: 5000, setups: 3, callers: 2}
	plain = w.run(o)
	for _, p := range plain.problems {
		t.Errorf("%s untraced: %s", name, p)
	}
	for _, d := range e2eDefs {
		if _, ok := plain.e2e[d.name]; !ok {
			t.Errorf("%s untraced: no %s", name, d.name)
		}
	}
	tr = newTracer()
	res = traced(w, opts{seed: 5, dur: o.dur, rate: o.rate, setups: 3, callers: 2}, filepath.Join(t.TempDir(), "spans.jsonl"), tr, io.Discard)
	for _, p := range res.problems {
		t.Errorf("%s traced: %s", name, p)
	}
	for _, d := range layerDefs {
		if _, ok := res.layer[d.name]; !ok {
			t.Errorf("%s traced: no %s", name, d.name)
		}
	}
	return plain, res, tr
}

func TestSmokeRPCSmall(t *testing.T) {
	plain, res, tr := smoke(t, "rpc-small")
	// The traced and untraced passes coalesce writes alike.
	for _, o := range []*outcome{plain, res} {
		if o.path.clientFlushMean <= 1 && o.path.serverFlushMean <= 1 {
			t.Errorf("no coalesced flush: client %.2f server %.2f", o.path.clientFlushMean, o.path.serverFlushMean)
		}
	}
	// Reconciliation: the stage spans of every request tile its invoke
	// span. Stages share their boundary stamps, so the sums must agree to
	// the nanosecond; a request with a stamp missing or out of order is
	// torn.
	if tr.torn.Load() != 0 || tr.complete.Load() == 0 {
		t.Fatalf("%d complete requests, %d torn", tr.complete.Load(), tr.torn.Load())
	}
	var sum int64
	for s := range tr.stageNs {
		sum += tr.stageNs[s].Load()
	}
	if total := tr.invokeNs.Load(); sum != total {
		t.Fatalf("stages sum to %d ns, invokes took %d ns", sum, total)
	}
}

func TestSmokeQoSBulk(t *testing.T) {
	plain, res, _ := smoke(t, "qos-bulk")
	if err := samePath(plain.path, res.path); err != nil {
		t.Fatal(err)
	}
	if len(res.path.stacks) == 0 || res.path.threaded == 0 {
		t.Fatalf("qos-bulk ran no threaded Da CaPo stack: %+v", res.path)
	}
}

func TestSmokeQoSSessions(t *testing.T) {
	_, res, _ := smoke(t, "qos-sessions")
	if res.layer["qos.outcome.nack"].Value == 0 || res.layer["dacapo.admission_rejected"].Value == 0 {
		t.Fatalf("no NACK scenario ran: %+v", res.layer)
	}
}

// TestWrongReplyFailsRun has the servant corrupt one reply after the
// set-ups, and expects each workload's command to report it and exit 1.
func TestWrongReplyFailsRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		perSetup int64 // replies a set-up receives
	}{{"rpc-small", 2}, {"qos-bulk", 2}, {"qos-sessions", callsPerSession}} {
		corruptReply.Store(setupRuns*tc.perSetup + 200)
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", tc.name, "-seed", "3", "-seconds", "1", "-rate", "5000"}, &stdout, &stderr)
		left := corruptReply.Swap(0)
		t.Logf("%s: %s", tc.name, strings.TrimSpace(stderr.String()))
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: result line: %v", tc.name, err)
		}
		if left != 0 || code != 1 || res.Correct || res.Failed == 0 || !strings.Contains(stderr.String(), "1 of them with a wrong reply") {
			t.Errorf("%s: corrupt countdown at %d, exit %d, correct %v, %d failed; stderr:\n%s", tc.name, left, code, res.Correct, res.Failed, stderr.String())
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, program has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, program has %v", names, want)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []def) {
		if len(got) != len(defs) {
			t.Fatalf("%s: %d metrics, program has %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, program has %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eDefs)
	check("per_layer", b.PerLayer, layerDefs)
}

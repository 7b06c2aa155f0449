package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own code only: around
// the calls it makes into the ORB, inside the callbacks and servant the
// ORB calls back, and in the transport, Da CaPo and module decorators it
// installs. Spans stay in memory and are written out when the run ends.

// Request stage stamps, in the order a request crosses them. Every stage
// span runs from one stamp to the next, so the stages tile the invoke.
const (
	stInvoke   = iota // Invoke (or InvokeDeferred/InvokeAsync) entry
	stArgsIn          // args callback entry
	stArgsOut         // args callback return
	stServIn          // servant entry
	stServOut         // servant return
	stReplyIn         // reply callback entry
	stReplyOut        // reply callback return
	stDone            // Invoke (or Wait, or notify) return
	nStamps
)

// stageNames names the span between stamp i and i+1.
var stageNames = [nStamps - 1]string{
	"orb.client_pre", "cdr.encode", "orb.request_path", "orb.servant",
	"orb.reply_path", "cdr.decode", "orb.client_post",
}

// Request records and decorator spans are kept in rings of these sizes,
// so the traced run's memory and its spans file stay bounded; the ring
// holds the most recent requests and spans. reqRing must exceed the
// requests in flight at once (at most openSlots plus the closed-loop
// windows).
const (
	reqRing  = 1 << 13
	spanRing = 1 << 15
)

// reqRec holds the stamps of one request; tag is the request it belongs
// to, 0 while its slot is being reused.
type reqRec struct {
	tag atomic.Uint32
	t   [nStamps]atomic.Int64
}

// span is one recorded interval. Request spans share their request's tag
// as trace; decorator spans not tied to one request have trace 0.
type span struct {
	trace  uint64
	id     uint32
	parent uint32
	name   string
	start  int64
	end    int64
}

// acc accumulates a layer's self time, calls and bytes.
type acc struct {
	n, ns, bytes atomic.Int64
}

func (a *acc) add(ns int64, bytes int) {
	a.n.Add(1)
	a.ns.Add(ns)
	a.bytes.Add(int64(bytes))
}

// nsPer returns the mean self time per call in ns.
func (a *acc) nsPer() float64 { return ratio(float64(a.ns.Load()), float64(a.n.Load())) }

// frame is an open decorator span on one goroutine; child accumulates the
// time of spans nested in it, so its self time is its duration minus
// child.
type frame struct {
	id    uint32
	start int64
	child int64
}

// tracer is the span store of one traced run. A nil *tracer records
// nothing; every method is safe on it.
type tracer struct {
	epoch  time.Time
	reqs   []reqRec
	spans  []span
	nspans atomic.Int64
	ids    atomic.Uint32

	// Stage accumulators over every request that completed with all its
	// stamps in order.
	stageNs  [nStamps - 1]atomic.Int64
	invokeNs atomic.Int64
	complete atomic.Int64
	torn     atomic.Int64

	mu   sync.Mutex
	accs map[string]*acc

	frames sync.Map // goroutineKey() -> *[]*frame
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		reqs:  make([]reqRec, reqRing),
		spans: make([]span, spanRing),
		accs:  make(map[string]*acc),
	}
}

// now returns monotonic nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// rec returns the record slot of request tag.
func (t *tracer) rec(tag uint32) *reqRec { return &t.reqs[tag%reqRing] }

// stamp records stage s of request tag. The invoke stamp claims the slot
// for the request and clears what its previous occupant left.
func (t *tracer) stamp(tag uint32, s int) {
	if t == nil {
		return
	}
	r := t.rec(tag)
	if s == stInvoke {
		r.tag.Store(0)
		for i := range r.t {
			r.t[i].Store(0)
		}
		r.tag.Store(tag)
	}
	r.t[s].Store(t.now())
}

// done records the end of request tag. A request that succeeded has all
// eight stamps in order; its stage durations are added to the stage
// accumulators, and one with a stamp missing or out of order counts as
// torn.
func (t *tracer) done(tag uint32, ok bool) {
	if t == nil {
		return
	}
	t.stamp(tag, stDone)
	r := t.rec(tag)
	if !ok || r.tag.Load() != tag {
		return
	}
	var d [nStamps - 1]int64
	for s := range d {
		a, b := r.t[s].Load(), r.t[s+1].Load()
		if a == 0 || b < a {
			t.torn.Add(1)
			return
		}
		d[s] = b - a
	}
	for s, v := range d {
		t.stageNs[s].Add(v)
	}
	t.invokeNs.Add(r.t[stDone].Load() - r.t[stInvoke].Load())
	t.complete.Add(1)
}

// bound records the bind time of request tag, the first call on a fresh
// binding: from Invoke entry to its args callback, which covers profile
// selection, the dial and the transport QoS negotiation.
func (t *tracer) bound(tag uint32) {
	if t == nil {
		return
	}
	r := t.rec(tag)
	a, b := r.t[stInvoke].Load(), r.t[stArgsIn].Load()
	if r.tag.Load() == tag && a > 0 && b >= a {
		t.acc("orb.bind").add(b-a, 0)
	}
}

// acc returns the accumulator called name, creating it on first use.
func (t *tracer) acc(name string) *acc {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.accs[name]
	if !ok {
		a = &acc{}
		t.accs[name] = a
	}
	return a
}

// record stores a span in the ring; the accumulators cover every call
// either way.
func (t *tracer) record(s span) {
	i := t.nspans.Add(1) - 1
	t.spans[i%spanRing] = s
}

// timed records a span with no nesting and adds its duration to a.
func (t *tracer) timed(name string, a *acc, start int64, bytes int) {
	if t == nil {
		return
	}
	end := t.now()
	t.record(span{id: t.ids.Add(1), name: name, start: start, end: end})
	a.add(end-start, bytes)
}

// stack returns the calling goroutine's open frames. Entries are never
// removed: goroutine descriptors are recycled by the runtime, which bounds
// the map, and a finished goroutine leaves an empty stack behind.
func (t *tracer) stack() *[]*frame {
	k := goroutineKey()
	if v, ok := t.frames.Load(k); ok {
		return v.(*[]*frame)
	}
	v, _ := t.frames.LoadOrStore(k, new([]*frame))
	return v.(*[]*frame)
}

// enter opens a nesting-aware span on the calling goroutine.
func (t *tracer) enter() *frame {
	if t == nil {
		return nil
	}
	st := t.stack()
	f := &frame{id: t.ids.Add(1), start: t.now()}
	*st = append(*st, f)
	return f
}

// leave closes f, charges its duration to the enclosing frame on the same
// goroutine (if any), and adds its self time to a.
func (t *tracer) leave(f *frame, name string, a *acc, bytes int) {
	if t == nil {
		return
	}
	end := t.now()
	st := t.stack()
	*st = (*st)[:len(*st)-1]
	var parent uint32
	if n := len(*st); n > 0 {
		p := (*st)[n-1]
		p.child += end - f.start
		parent = p.id
	}
	t.record(span{id: f.id, parent: parent, name: name, start: f.start, end: end})
	a.add(end-f.start-f.child, bytes)
}

// nested charges an un-nestable span (a wire write) to the frame open on
// the calling goroutine, if any, and returns that frame's id.
func (t *tracer) nested(dur int64) uint32 {
	st := t.stack()
	if len(*st) == 0 {
		return 0
	}
	p := (*st)[len(*st)-1]
	p.child += dur
	return p.id
}

// write stores every span as one JSON object per line in path: the
// request spans (an "invoke" root and its seven stages, sharing the
// request tag as trace id) followed by the decorator spans.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type out struct {
		Trace  uint64 `json:"trace"`
		ID     uint32 `json:"id"`
		Parent uint32 `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	var werr error
	put := func(o out) {
		if werr == nil {
			werr = enc.Encode(o)
		}
	}
	for i := range t.reqs {
		r := &t.reqs[i]
		tag := r.tag.Load()
		if tag == 0 || r.t[stDone].Load() == 0 {
			continue
		}
		root := t.ids.Add(1)
		put(out{Trace: uint64(tag), ID: root, Name: "invoke", Start: r.t[stInvoke].Load(), End: r.t[stDone].Load()})
		for s := 0; s < nStamps-1; s++ {
			put(out{Trace: uint64(tag), ID: t.ids.Add(1), Parent: root, Name: stageNames[s], Start: r.t[s].Load(), End: r.t[s+1].Load()})
		}
	}
	n := min(t.nspans.Load(), spanRing)
	for _, s := range t.spans[:n] {
		put(out{Trace: s.trace, ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: s.end})
	}
	if werr != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", werr)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package dacapo

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Direction of a packet through the stack.
type Direction int

// Packet directions.
const (
	// Down moves from the application (A) toward the transport (T):
	// modules add their protocol headers.
	Down Direction = iota + 1
	// Up moves from the transport toward the application: modules parse
	// and strip their headers.
	Up
)

func (d Direction) String() string {
	if d == Down {
		return "down"
	}
	return "up"
}

// Module is one protocol mechanism in a module graph: the unified module
// interface that "allows free and unconstrained combination of modules to
// protocols" (§5.1).
//
// Handlers receive packets and either forward them (ctx.EmitDown/EmitUp),
// absorb them (ACKs, duplicates), or emit additional ones (retransmissions,
// fragments).
//
// Execution contract. The runtime starts no goroutines: Send runs the
// down direction on the sending goroutine and Recv the up direction on the
// receiving one. By default a module is *inline*: its HandleDown runs on
// whichever goroutine carries the packet down (the sender, or the holder
// of the nearest blocking stage above) and its HandleUp under the
// receiver's lock. Per direction, handlers never run concurrently — but
// HandleDown and HandleUp of the *same* inline module may, so inline
// modules must keep their down-state and up-state in disjoint fields, must
// not block, and must not use PauseDown/Throttle/After/Post (the runtime
// panics if they do). An inline module must also never EmitDown from its
// up path. Down-direction packets may wrap borrowed caller memory and must
// never be retained past handler return — in-place payload transforms go
// through Packet.WritableBytes/SetPayload, which migrate borrowed memory
// before writing; up-direction packets are pool-owned and may be retained
// (reassembly) as long as Stop releases whatever is still held.
//
// A module that needs any of those — flow-control pauses, timers, posted
// events, down-emission from the up path (ACKs) — declares it by
// implementing Blocker; see there.
type Module interface {
	// Name returns the mechanism name this instance was built from.
	Name() string
	// Start runs before any packet is handled (synchronously during
	// Runtime.Start; a blocking module's stage is locked meanwhile).
	Start(ctx *Context) error
	// HandleDown processes a packet moving toward the transport.
	HandleDown(ctx *Context, p *Packet) error
	// HandleUp processes a packet moving toward the application.
	HandleUp(ctx *Context, p *Packet) error
	// HandleEvent processes a timer or control event posted via
	// ctx.After or ctx.Post (blocking modules only).
	HandleEvent(ctx *Context, ev any) error
	// Stop runs during shutdown, once the runtime is stopped (a blocking
	// module's under its stage lock, so no handler runs afterwards).
	Stop(ctx *Context) error
}

// Blocker marks a Module that pauses intake (PauseDown, Throttle), arms
// timers (After), posts events (Post), keeps packets past a handler call,
// or emits down-direction packets from its up path (ACKs). The runtime
// runs such a module as a locked run-to-completion stage: all its handlers
// run under one lock, held by whichever goroutine reaches the stage — the
// sender, the receiver, or the stage's timer — so they never run
// concurrently and need no locking of their own. The inline modules below
// it in the down direction run under the same lock, and the frames they
// emit are queued for the wire under it, so wire order equals emission
// order. The queue is written after the lock is released, by a sender or
// a timer goroutine, never by the receive path, so a write blocked on the
// peer never stops this end from reading. Packets given to a blocking
// module are arena-owned and may be kept; packets it emits up are handed
// on once the lock is released, and it may emit up only from HandleUp.
type Blocker interface {
	Module
	// Blocking is a marker; implementations do nothing.
	Blocking()
}

// BaseModule provides no-op implementations of the optional Module methods;
// embed it to implement only what a mechanism needs.
type BaseModule struct{}

// Start implements Module.
func (BaseModule) Start(*Context) error { return nil }

// HandleEvent implements Module.
func (BaseModule) HandleEvent(*Context, any) error { return nil }

// Stop implements Module.
func (BaseModule) Stop(*Context) error { return nil }

// ErrStopped is returned by Context emit functions once the runtime is
// shutting down.
var ErrStopped = errors.New("dacapo: runtime stopped")

// Context is a module's interface to the runtime: its position in the
// graph, the continuation to the neighbour modules, and (for blocking
// modules) its timer facility.
type Context struct {
	rt  *Runtime
	idx int
	st  *stage
	// stages is the generation of the module graph this context belongs
	// to; a mid-stream reconfiguration splices in a new generation with
	// fresh contexts, so packets in flight finish on the graph they
	// entered.
	stages []*stage

	// paused is the down-direction intake state of a blocking stage
	// (intakeOpen, intakePeer, intakeTimed). It is written under the
	// stage's lock and read lock-free by a waiting sender.
	paused atomic.Int32
	// upward is set while a blocking stage runs HandleUp, the one handler
	// that may emit up (guarded by the stage's lock).
	upward bool

	// stats are written by the executing goroutine and snapshotted by
	// Runtime.Stats from other goroutines, hence the atomics.
	downPkts, downBytes uint64
	upPkts, upBytes     uint64
	drops               uint64
}

// PauseDown stops the runtime from delivering further down-direction
// packets to this module until ResumeDown; they queue in the runtime, and
// Send waits once queueDepth are queued. The pause ends on peer input (an
// ARQ window awaiting ACKs), so while no Recv is running a sender blocked
// behind it reads the transport itself. Blocking modules only.
func (c *Context) PauseDown() {
	c.mustBlock("PauseDown")
	c.paused.Store(intakePeer)
}

// Throttle pauses down-direction intake like PauseDown and arms the
// stage's timer to deliver ev to HandleEvent after d, where the module
// resumes itself. The pause ends without the peer, so a sender blocked
// behind it just waits. Blocking modules only.
func (c *Context) Throttle(d time.Duration, ev any) {
	c.mustBlock("Throttle")
	c.paused.Store(intakeTimed)
	c.arm(d, ev, false)
}

// ResumeDown re-enables down-direction intake; the packets queued
// meanwhile run before the stage's lock is released. Must be called from
// a handler.
func (c *Context) ResumeDown() { c.paused.Store(intakeOpen) }

func (c *Context) mustBlock(op string) {
	if !c.st.blocking {
		panic("dacapo: inline module " + c.st.mod.Name() + " called Context." + op +
			"; declare Blocking() to run as a locked stage")
	}
}

// EmitDown hands a packet to the next module toward the transport (or to
// the transport itself from the lowest module). It fails with ErrStopped
// during shutdown.
func (c *Context) EmitDown(p *Packet) error {
	atomic.AddUint64(&c.downPkts, 1)
	atomic.AddUint64(&c.downBytes, uint64(p.Len()))
	return c.rt.downFrom(c.stages, c.idx+1, p)
}

// Flush asks for the frames queued so far to be written without waiting
// for flushDelay, for a frame the peer waits for, such as the ACK that
// reopens its full window. It matters only in HandleUp, since the sender
// or timer that runs the other handlers writes their frames itself.
// Blocking modules only.
func (c *Context) Flush() {
	c.mustBlock("Flush")
	c.rt.kickWire(0)
}

// EmitDownCopy emits a copy of p toward the transport and leaves p with
// the module, for retransmission buffers. Blocking modules only.
func (c *Context) EmitDownCopy(p *Packet) error {
	c.mustBlock("EmitDownCopy")
	return c.EmitDown(p.Clone())
}

// EmitUp hands a packet to the next module toward the application (or to
// the application's receive queue from the topmost module). A blocking
// module's emissions move on once its lock is released.
func (c *Context) EmitUp(p *Packet) error {
	atomic.AddUint64(&c.upPkts, 1)
	atomic.AddUint64(&c.upBytes, uint64(p.Len()))
	if !c.st.blocking {
		return c.rt.upFrom(c.stages, c.idx-1, p)
	}
	if !c.upward {
		putPacket(p)
		return fmt.Errorf("dacapo: module %s emitted up outside HandleUp", c.st.mod.Name())
	}
	c.st.up = append(c.st.up, p) //coollint:allocok the backing is reused by every hold of the stage
	return nil
}

// Drop records an absorbed packet (failed checksum, duplicate, ACK).
func (c *Context) Drop(p *Packet) {
	atomic.AddUint64(&c.drops, 1)
	putPacket(p)
}

// After arms the stage's timer to deliver ev to HandleEvent after d. A
// stage has one timer: arming it again replaces the pending event, and
// the returned stop function cancels whatever is pending; a cancelled or
// replaced event is never delivered. Arming allocates nothing (pass an
// event that boxes without allocating, such as a zero-size struct).
// The timer's goroutine writes the frames the event emits. An After
// timeout is taken to mean the peer owes an answer (an ARQ
// retransmission), so when no Recv is running the timer's goroutine then
// reads the transport. Blocking modules only, from a handler or Start.
func (c *Context) After(d time.Duration, ev any) (stop func()) {
	c.mustBlock("After")
	return c.arm(d, ev, true)
}

// arm sets the stage's one timer; reads says whether the firing goroutine
// reads the transport after the event when nobody else does.
func (c *Context) arm(d time.Duration, ev any, reads bool) func() {
	s := c.st
	s.timerEv = ev
	s.timerAt = time.Now().Add(d)
	s.timerArmed = true
	s.timerReads = reads
	if s.timer == nil {
		s.timer = time.AfterFunc(d, c.fire)
	} else {
		s.timer.Reset(d)
	}
	return s.stopTimer
}

// cancelTimer disarms the stage's timer (stage lock held).
func (c *Context) cancelTimer() {
	s := c.st
	s.timerArmed = false
	s.timerEv = nil
	if s.timer != nil {
		s.timer.Stop()
	}
}

// fire runs on the timer's goroutine: it delivers the armed event, then
// reads the transport if the arm asked for it and nobody else does.
func (c *Context) fire() {
	if c.timerEvent() {
		c.rt.readForTimer()
	}
}

// timerEvent takes the stage's lock and delivers the armed event, unless
// the arm was cancelled or replaced by a later one meanwhile, then writes
// the frames the event queued. It reports whether the event ran cleanly
// and asked for a transport read.
func (c *Context) timerEvent() (read bool) {
	s, r := c.st, c.rt
	s.mu.Lock()
	if !s.timerArmed || time.Now().Before(s.timerAt) || r.stopped() {
		s.mu.Unlock()
		return false
	}
	s.timerArmed = false
	ev, reads := s.timerEv, s.timerReads
	s.timerEv = nil
	err := s.mod.HandleEvent(c, ev)
	if err != nil {
		err = fmt.Errorf("dacapo: module %s: %w", s.mod.Name(), err)
	}
	if err = r.release(s, err); err == nil {
		err = r.pushWire()
	}
	r.stageDone(err)
	return reads && err == nil
}

// Post queues ev for this module's HandleEvent, which runs before the
// stage's lock is released. Blocking modules only, from a handler or
// Start.
func (c *Context) Post(ev any) {
	c.mustBlock("Post")
	c.st.events = append(c.st.events, ev)
}

// Pool returns the shared packet pool.
func (c *Context) Pool() *Pool { return &sharedPool }

// Factory builds a module instance from its spec arguments.
type Factory func(args Args) (Module, error)

// Args carries the string key/value arguments of a ModuleSpec.
type Args map[string]string

// Int returns the integer argument for key, or def when absent.
func (a Args) Int(key string, def int) (int, error) {
	s, ok := a[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("dacapo: argument %q: %w", key, err)
	}
	return v, nil
}

// Duration returns the duration argument for key, or def when absent.
func (a Args) Duration(key string, def time.Duration) (time.Duration, error) {
	s, ok := a[key]
	if !ok {
		return def, nil
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("dacapo: argument %q: %w", key, err)
	}
	return v, nil
}

// Registry maps mechanism names to factories — the module library the
// configuration manager draws from.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register adds a mechanism; it panics on duplicates, which indicate a
// programming error during library assembly.
func (r *Registry) Register(name string, f Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		panic("dacapo: duplicate module mechanism " + name)
	}
	r.factories[name] = f
}

// Build instantiates a mechanism by name.
func (r *Registry) Build(name string, args Args) (Module, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dacapo: unknown module mechanism %q", name)
	}
	return f(args)
}

// Has reports whether a mechanism is registered.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.factories[name]
	return ok
}

// Names lists registered mechanisms, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

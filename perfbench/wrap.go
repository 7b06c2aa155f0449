package main

import (
	"context"
	"sync/atomic"

	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/qos"
	"cool/internal/transport"
)

// Decorators for the interfaces the ORB already accepts: a
// transport.Manager (tcp, or the T service under Da CaPo), the Da CaPo
// manager itself, and the Da CaPo module Registry. They time each call
// into the layer they wrap and otherwise forward it unchanged, including
// the optional extensions the ORB and Da CaPo probe for (BatchChannel,
// ChannelUnwrapper, ContextDialer, Blocker), so the traced run takes the
// same code path as the untraced one. Only the traced run installs them.

// wireStats are the counters of one decorated wire transport.
type wireStats struct {
	write  *acc // self time per write call; bytes written
	dial   *acc
	frames atomic.Int64
	writes atomic.Int64
}

// tManager decorates a wire transport manager. under is set when it is
// the T service of a Da CaPo manager: its writes may then nest inside a
// Da CaPo send on the same goroutine and are charged to it.
type tManager struct {
	inner transport.Manager
	tr    *tracer
	st    *wireStats
	under bool
	// accepted is the time the last Accept of this manager's listener
	// returned (one accept loop per manager); the Da CaPo listener
	// decorator measures its handshake from there.
	accepted atomic.Int64
}

func newTManager(inner transport.Manager, tr *tracer, st *wireStats, under bool) *tManager {
	return &tManager{inner: inner, tr: tr, st: st, under: under}
}

func newWireStats(tr *tracer) *wireStats {
	return &wireStats{write: tr.acc("transport.write"), dial: tr.acc("transport.dial")}
}

func (m *tManager) Scheme() string             { return m.inner.Scheme() }
func (m *tManager) Capability() qos.Capability { return m.inner.Capability() }

func (m *tManager) Dial(addr string) (transport.Channel, error) {
	start := m.tr.now()
	ch, err := m.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	m.tr.timed("transport.dial", m.st.dial, start, 0)
	return m.wrap(ch), nil
}

// DialContext implements transport.ContextDialer, forwarding to the inner
// manager's extension when it has one (transport.DialContext).
func (m *tManager) DialContext(ctx context.Context, addr string) (transport.Channel, error) {
	start := m.tr.now()
	ch, err := transport.DialContext(ctx, m.inner, addr)
	if err != nil {
		return nil, err
	}
	m.tr.timed("transport.dial", m.st.dial, start, 0)
	return m.wrap(ch), nil
}

func (m *tManager) Listen(addr string) (transport.Listener, error) {
	l, err := m.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tListener{Listener: l, m: m}, nil
}

func (m *tManager) wrap(ch transport.Channel) *tChannel {
	b, _ := transport.AsBatchChannel(ch)
	return &tChannel{inner: ch, batch: b, m: m}
}

type tListener struct {
	transport.Listener
	m *tManager
}

func (l *tListener) Accept() (transport.Channel, error) {
	ch, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.m.accepted.Store(l.m.tr.now())
	return l.m.wrap(ch), nil
}

// tChannel decorates one wire channel. It implements WriteMessages itself:
// without it transport.AsBatchChannel would unwrap past the decorator and
// the ORB's batched writes would go untimed.
type tChannel struct {
	inner transport.Channel
	batch transport.BatchChannel
	m     *tManager
}

var (
	_ transport.BatchChannel     = (*tChannel)(nil)
	_ transport.ChannelUnwrapper = (*tChannel)(nil)
	_ transport.ContextDialer    = (*tManager)(nil)
)

func (c *tChannel) WriteMessage(p []byte) error {
	start := c.m.tr.now()
	err := c.inner.WriteMessage(p)
	c.wrote(start, 1, len(p))
	return err
}

func (c *tChannel) WriteMessages(frames [][]byte) error {
	if c.batch == nil {
		for _, p := range frames {
			if err := c.WriteMessage(p); err != nil {
				return err
			}
		}
		return nil
	}
	start := c.m.tr.now()
	err := c.batch.WriteMessages(frames)
	n := 0
	for _, p := range frames {
		n += len(p)
	}
	c.wrote(start, len(frames), n)
	return err
}

func (c *tChannel) wrote(start int64, frames, bytes int) {
	tr, st := c.m.tr, c.m.st
	end := tr.now()
	var parent uint32
	if c.m.under {
		parent = tr.nested(end - start)
	}
	tr.record(span{id: tr.ids.Add(1), parent: parent, name: "transport.write", start: start, end: end})
	st.write.add(end-start, bytes)
	st.writes.Add(1)
	st.frames.Add(int64(frames))
}

func (c *tChannel) ReadMessage() ([]byte, error) { return c.inner.ReadMessage() }
func (c *tChannel) SetQoSParameter(p qos.Set) (qos.Set, error) {
	return c.inner.SetQoSParameter(p)
}
func (c *tChannel) Close() error              { return c.inner.Close() }
func (c *tChannel) LocalAddr() string         { return c.inner.LocalAddr() }
func (c *tChannel) RemoteAddr() string        { return c.inner.RemoteAddr() }
func (c *tChannel) Unwrap() transport.Channel { return c.inner }

// dacapoStats are the counters of one decorated Da CaPo manager.
type dacapoStats struct {
	connect, accept, close, send *acc
	msgs                         atomic.Int64
}

func newDacapoStats(tr *tracer) *dacapoStats {
	return &dacapoStats{
		connect: tr.acc("dacapo.connect"), accept: tr.acc("dacapo.accept"),
		close: tr.acc("dacapo.close"), send: tr.acc("dacapo.send"),
	}
}

// dManager decorates a Da CaPo manager; wire is the decorated T service
// it runs over.
type dManager struct {
	inner transport.Manager
	wire  *tManager
	tr    *tracer
	st    *dacapoStats
}

var _ transport.ContextDialer = (*dManager)(nil)

func (m *dManager) Scheme() string             { return m.inner.Scheme() }
func (m *dManager) Capability() qos.Capability { return m.inner.Capability() }

func (m *dManager) Dial(addr string) (transport.Channel, error) {
	ch, err := m.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return m.wrap(ch), nil
}

func (m *dManager) DialContext(ctx context.Context, addr string) (transport.Channel, error) {
	ch, err := transport.DialContext(ctx, m.inner, addr)
	if err != nil {
		return nil, err
	}
	return m.wrap(ch), nil
}

func (m *dManager) Listen(addr string) (transport.Listener, error) {
	l, err := m.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &dListener{Listener: l, m: m}, nil
}

func (m *dManager) wrap(ch transport.Channel) *dChannel {
	b, _ := transport.AsBatchChannel(ch)
	return &dChannel{inner: ch, batch: b, m: m}
}

// dListener times the responder handshake: from the T service accepting
// the wire connection to the configured channel being handed out.
type dListener struct {
	transport.Listener
	m *dManager
}

func (l *dListener) Accept() (transport.Channel, error) {
	ch, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.m.tr.timed("dacapo.accept", l.m.st.accept, l.m.wire.accepted.Load(), 0)
	return l.m.wrap(ch), nil
}

// dChannel decorates one Da CaPo channel: SetQoSParameter (configuration
// and the Connect handshake on the dial side), sends (self time, with
// wire writes on the same goroutine subtracted) and Close.
type dChannel struct {
	inner transport.Channel
	batch transport.BatchChannel
	m     *dManager
}

var (
	_ transport.BatchChannel     = (*dChannel)(nil)
	_ transport.ChannelUnwrapper = (*dChannel)(nil)
)

func (c *dChannel) SetQoSParameter(p qos.Set) (qos.Set, error) {
	start := c.m.tr.now()
	g, err := c.inner.SetQoSParameter(p)
	if err == nil {
		c.m.tr.timed("dacapo.connect", c.m.st.connect, start, 0)
	}
	return g, err
}

func (c *dChannel) WriteMessage(p []byte) error {
	f := c.m.tr.enter()
	err := c.inner.WriteMessage(p)
	c.m.tr.leave(f, "dacapo.send", c.m.st.send, len(p))
	c.m.st.msgs.Add(1)
	return err
}

func (c *dChannel) WriteMessages(frames [][]byte) error {
	if c.batch == nil {
		for _, p := range frames {
			if err := c.WriteMessage(p); err != nil {
				return err
			}
		}
		return nil
	}
	f := c.m.tr.enter()
	err := c.batch.WriteMessages(frames)
	n := 0
	for _, p := range frames {
		n += len(p)
	}
	c.m.tr.leave(f, "dacapo.send", c.m.st.send, n)
	c.m.st.msgs.Add(int64(len(frames)))
	return err
}

func (c *dChannel) Close() error {
	start := c.m.tr.now()
	err := c.inner.Close()
	c.m.tr.timed("dacapo.close", c.m.st.close, start, 0)
	return err
}

func (c *dChannel) ReadMessage() ([]byte, error) { return c.inner.ReadMessage() }
func (c *dChannel) LocalAddr() string            { return c.inner.LocalAddr() }
func (c *dChannel) RemoteAddr() string           { return c.inner.RemoteAddr() }
func (c *dChannel) Unwrap() transport.Channel    { return c.inner }

// tracedLibrary returns the standard module library with every mechanism
// wrapped to record its down and up handler self time.
func tracedLibrary(tr *tracer) *dacapo.Registry {
	lib := modules.NewLibrary()
	reg := dacapo.NewRegistry()
	for _, name := range lib.Names() {
		a := tr.acc("modules." + name)
		down, up := "modules."+name+".down", "modules."+name+".up"
		reg.Register(name, func(args dacapo.Args) (dacapo.Module, error) {
			m, err := lib.Build(name, args)
			if err != nil {
				return nil, err
			}
			w := modWrap{Module: m, tr: tr, a: a, down: down, up: up}
			if _, ok := m.(dacapo.Blocker); ok {
				return &blockingModWrap{w}, nil
			}
			return &w, nil
		})
	}
	return reg
}

// modWrap times a module's packet handlers. Start, HandleEvent, Stop and
// Name are forwarded by embedding.
type modWrap struct {
	dacapo.Module
	tr       *tracer
	a        *acc
	down, up string
}

func (w *modWrap) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error {
	n := p.Len()
	f := w.tr.enter()
	err := w.Module.HandleDown(ctx, p)
	w.tr.leave(f, w.down, w.a, n)
	return err
}

func (w *modWrap) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error {
	n := p.Len()
	f := w.tr.enter()
	err := w.Module.HandleUp(ctx, p)
	w.tr.leave(f, w.up, w.a, n)
	return err
}

// blockingModWrap keeps the Blocker marker of a threaded module, so the
// runtime still gives it a pump of its own.
type blockingModWrap struct{ modWrap }

func (*blockingModWrap) Blocking() {}

package dacapo_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cool/internal/bufpool"
	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/netsim"
	"cool/internal/qos"
	"cool/internal/transport"
)

// Tests of the locked run-to-completion stages that blocking modules
// (window, irq, ratelimit) run as.

// seqPayload is message i of a transfer: its index, then filler.
func seqPayload(i, size int) []byte {
	b := bytes.Repeat([]byte{byte(i)}, size)
	binary.BigEndian.PutUint32(b, uint32(i))
	return b
}

// startOn starts runtimes for spec on both ends of a channel pair.
func startOn(t testing.TB, spec dacapo.Spec, a, b transport.Channel) (*dacapo.Runtime, *dacapo.Runtime) {
	t.Helper()
	reg := modules.NewLibrary()
	ra, err := dacapo.NewRuntime(spec, reg, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := dacapo.NewRuntime(spec, reg, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ra.Close(); rb.Close() })
	return ra, rb
}

// receiveInOrder reads n messages from rt and checks each is the next
// seqPayload, so every payload arrives exactly once and in order.
func receiveInOrder(rt *dacapo.Runtime, n, size int) error {
	for i := 0; i < n; i++ {
		got, err := rt.Recv()
		if err != nil {
			return fmt.Errorf("recv %d: %w", i, err)
		}
		if !bytes.Equal(got, seqPayload(i, size)) {
			return fmt.Errorf("message %d: got %d octets starting % x, want #%d (%d octets)",
				i, len(got), got[:min(len(got), 4)], i, size)
		}
		bufpool.Put(got)
	}
	return nil
}

// TestSendOnlyPeerCompletes: a peer that only ever calls Send still gets
// its ACKs, read by its own blocked sender, so a transfer longer than the
// window plus the paused-intake queue completes.
func TestSendOnlyPeerCompletes(t *testing.T) {
	for _, spec := range []dacapo.Spec{
		{Modules: []dacapo.ModuleSpec{{Name: "window", Args: dacapo.Args{"window": "4"}}, {Name: "crc32"}}},
		{Modules: []dacapo.ModuleSpec{{Name: "irq"}}},
	} {
		t.Run(spec.String(), func(t *testing.T) {
			ra, rb := startPair(t, spec)
			const n, size = 300, 100
			sent := make(chan error, 1)
			go func() {
				for i := 0; i < n; i++ {
					if err := ra.Send(seqPayload(i, size)); err != nil {
						sent <- fmt.Errorf("send %d: %w", i, err)
						return
					}
				}
				sent <- nil
			}()
			if err := receiveInOrder(rb, n, size); err != nil {
				t.Fatal(err)
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			if err := ra.Err(); err != nil {
				t.Fatalf("sender runtime failed: %v", err)
			}
		})
	}
}

// TestLossyTransferExactlyOnceInOrder: over a link dropping 1 % of frames
// both ways, window+crc32 (with and without xorcipher) delivers every
// payload exactly once and in order while both ends send.
func TestLossyTransferExactlyOnceInOrder(t *testing.T) {
	for _, cipher := range []bool{false, true} {
		var spec dacapo.Spec
		if cipher {
			spec.Modules = append(spec.Modules, dacapo.ModuleSpec{Name: "xorcipher"})
		}
		spec.Modules = append(spec.Modules,
			dacapo.ModuleSpec{Name: "window", Args: dacapo.Args{"window": "16", "rto": "10ms"}},
			dacapo.ModuleSpec{Name: "crc32"})
		t.Run(spec.String(), func(t *testing.T) {
			link := netsim.NewLink(netsim.Params{LossRate: 0.01, Seed: 7, QueueLen: 256})
			defer link.Close()
			a, b := link.Endpoints()
			ra, rb := startOn(t, spec, a, b)
			const n, size = 600, 2000
			var wg sync.WaitGroup
			errs := make(chan error, 3)
			for _, rt := range []*dacapo.Runtime{ra, rb} {
				wg.Add(1)
				go func(rt *dacapo.Runtime) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := rt.Send(seqPayload(i, size)); err != nil {
							errs <- fmt.Errorf("send %d: %w", i, err)
							return
						}
					}
				}(rt)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := receiveInOrder(ra, n, size); err != nil {
					errs <- err
				}
			}()
			if err := receiveInOrder(rb, n, size); err != nil {
				t.Error(err)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if ra.Err() != nil || rb.Err() != nil {
				t.Fatalf("runtime failed: %v / %v", ra.Err(), rb.Err())
			}
		})
	}
}

// TestIdlePeerKeepsWindowMoving: packets queued behind a full window
// while a Recv was running still leave after the application stops
// calling Recv and Send. The retransmission timer reads the ACKs that
// nobody else reads.
func TestIdlePeerKeepsWindowMoving(t *testing.T) {
	spec := dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "window", Args: dacapo.Args{"window": "2", "rto": "20ms"}},
	}}
	ra, rb := startPair(t, spec)
	recvDone := make(chan error, 1)
	go func() {
		got, err := ra.Recv()
		bufpool.Put(got)
		recvDone <- err
	}()
	waitForStack(t, "(*Runtime).recvStepLocked")
	const n, size = 10, 100
	// With a Recv running, Send leaves the packets beyond the window
	// queued and returns.
	for i := 0; i < n; i++ {
		if err := ra.Send(seqPayload(i, size)); err != nil {
			t.Fatal(err)
		}
	}
	if sent := ra.Stats()[0].DownPackets; sent != 2 {
		t.Fatalf("window sent %d packets, want 2 with the rest queued", sent)
	}
	// End ra's Recv before rb has read, and so ACKed, anything.
	if err := rb.Send([]byte("stop")); err != nil {
		t.Fatal(err)
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- receiveInOrder(rb, n, size) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("packets queued behind the window never left the idle peer")
	}
}

// waitForStack waits until some goroutine's stack contains fn.
func waitForStack(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no goroutine reached %s", fn)
}

// pipeChannel frames messages over a synchronous in-memory pipe: a write
// returns only once the peer has read it, so the link buffers nothing —
// less than any socket buffer, and far less than an ARQ window of large
// frames.
type pipeChannel struct {
	conn   net.Conn
	wmu    sync.Mutex
	rmu    sync.Mutex
	hdr    [4]byte
	rhdr   [4]byte
	closed sync.Once
}

func (c *pipeChannel) WriteMessage(p []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	binary.BigEndian.PutUint32(c.hdr[:], uint32(len(p)))
	if _, err := c.conn.Write(c.hdr[:]); err != nil {
		return transport.ErrClosed
	}
	if _, err := c.conn.Write(p); err != nil {
		return transport.ErrClosed
	}
	return nil
}

func (c *pipeChannel) ReadMessage() ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if _, err := io.ReadFull(c.conn, c.rhdr[:]); err != nil {
		if errors.Is(err, io.ErrClosedPipe) {
			return nil, transport.ErrClosed
		}
		return nil, io.EOF
	}
	n := int(binary.BigEndian.Uint32(c.rhdr[:]))
	b := transport.GetBuffer(n)[:n]
	if _, err := io.ReadFull(c.conn, b); err != nil {
		transport.PutBuffer(b)
		return nil, io.EOF
	}
	return b, nil
}

func (c *pipeChannel) SetQoSParameter(qos.Set) (qos.Set, error) {
	return nil, transport.ErrQoSNotSupported
}
func (c *pipeChannel) Close() error       { c.closed.Do(func() { c.conn.Close() }); return nil }
func (c *pipeChannel) LocalAddr() string  { return "pipe" }
func (c *pipeChannel) RemoteAddr() string { return "pipe" }

// TestBidirectionalBulkOverUnbufferedLink: both ends send 64 KiB frames
// through a window of 16 while both receive, over a link that buffers
// nothing. A receiver must keep reading while its own end's writes are
// blocked on the peer; if a receive step ever waited for a blocked write,
// both ends would stop reading and the transfer would hang.
func TestBidirectionalBulkOverUnbufferedLink(t *testing.T) {
	spec := dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "window", Args: dacapo.Args{"window": "16", "rto": "200ms"}},
		{Name: "crc32"},
	}}
	c1, c2 := net.Pipe()
	ra, rb := startOn(t, spec, &pipeChannel{conn: c1}, &pipeChannel{conn: c2})
	const n, size = 120, 64 << 10
	errs := make(chan error, 4)
	var extra atomic.Int32
	for _, rt := range []*dacapo.Runtime{ra, rb} {
		go func(rt *dacapo.Runtime) {
			for i := 0; i < n; i++ {
				if err := rt.Send(seqPayload(i, size)); err != nil {
					errs <- fmt.Errorf("send %d: %w", i, err)
					return
				}
			}
			errs <- nil
		}(rt)
		go func(rt *dacapo.Runtime) {
			errs <- receiveInOrder(rt, n, size)
			// Keep reading until the runtime closes: the link holds
			// nothing, so the peer's last writes (ACKs) need a reader.
			for {
				got, err := rt.Recv()
				if err != nil {
					return
				}
				bufpool.Put(got)
				extra.Add(1)
			}
		}(rt)
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("transfer hung: both ends stopped reading")
		}
	}
	if ra.Err() != nil || rb.Err() != nil {
		t.Fatalf("runtime failed: %v / %v", ra.Err(), rb.Err())
	}
	if e := extra.Load(); e != 0 {
		t.Fatalf("%d payloads delivered beyond the %d sent", e, n)
	}
}

// dacapoGoroutines counts the live goroutines that code in the dacapo
// packages started. Timer callbacks (time.AfterFunc) are started by the
// time package and end with the callback.
func dacapoGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by cool/internal/dacapo.") ||
			strings.Contains(g, "created by cool/internal/dacapo/") {
			n++
		}
	}
	return n
}

// TestLockedStagesStartNoGoroutines: runtimes with window, irq and
// ratelimit stages start no goroutines of their own, before or during
// traffic — the blocking stages run on the callers and on timer
// callbacks (a stage's timer; the flush timer that writes the ACKs a
// receive step queued).
func TestLockedStagesStartNoGoroutines(t *testing.T) {
	spec := dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "ratelimit", Args: dacapo.Args{"kbps": "10000000", "burst": "1048576"}},
		{Name: "window"},
		{Name: "irq"},
	}}
	a, b := pipePair(t)
	ra, rb := startOn(t, spec, a, b)
	if got := dacapoGoroutines(); got != 0 {
		t.Fatalf("%d dacapo goroutines after Start", got)
	}
	const n, size = 100, 64
	received := make(chan struct{})
	go func() {
		defer close(received)
		if err := receiveInOrder(rb, n, size); err != nil {
			t.Error(err)
		}
	}()
	// A Recv on ra reads the ACKs; it returns when ra closes.
	acks := make(chan struct{})
	go func() {
		defer close(acks)
		ra.Recv()
	}()
	for i := 0; i < n; i++ {
		if err := ra.Send(seqPayload(i, size)); err != nil {
			t.Fatal(err)
		}
		if got := dacapoGoroutines(); got != 0 {
			t.Fatalf("%d dacapo goroutines during traffic", got)
		}
	}
	<-received
	ra.Close()
	<-acks
}

// TestWarmWindowEchoAllocatesNothing pins the allocation count of a warm
// request/reply echo over a window graph: packet clones and ACKs come
// from the pools, the retransmission timer is re-armed in place, and the
// window ring replaces a map.
func TestWarmWindowEchoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget measured without -race")
	}
	if bufpool.DebugEnabled {
		t.Skip("pooldebug bookkeeping allocates; budget measured without -tags pooldebug")
	}
	ra, rb := startPair(t, dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "window"}, {Name: "crc32"}}})
	req := bytes.Repeat([]byte{0x5a}, 1024)
	echo := func() {
		if err := ra.Send(req); err != nil {
			t.Fatal(err)
		}
		got, err := rb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := rb.Send(got); err != nil {
			t.Fatal(err)
		}
		bufpool.Put(got)
		back, err := ra.Recv()
		if err != nil {
			t.Fatal(err)
		}
		bufpool.Put(back)
	}
	for i := 0; i < 64; i++ {
		echo()
	}
	if allocs := testing.AllocsPerRun(500, echo); allocs > 0 {
		t.Fatalf("warm window echo: %.2f allocs/op, want 0", allocs)
	}
}

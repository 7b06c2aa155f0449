package dacapo_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"cool/internal/dacapo"
	"cool/internal/dacapo/modules"
	"cool/internal/qos"
)

func specCipherCRC() dacapo.Spec {
	return dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "xorcipher"}, {Name: "crc32"},
	}}
}

func specRLECRC() dacapo.Spec {
	return dacapo.Spec{Modules: []dacapo.ModuleSpec{
		{Name: "rle"}, {Name: "crc16"},
	}}
}

// TestReconfigureSpliceUnderLoadNoLossNoDup floods sequence-numbered
// messages through an inline stack while the sender splices in a
// different module graph mid-stream. The receiver must observe every
// sequence number exactly once, in order, across the generation switch.
func TestReconfigureSpliceUnderLoadNoLossNoDup(t *testing.T) {
	ra, rb := startPair(t, specCipherCRC())

	const n = 2000
	recvDone := make(chan error, 1)
	go func() {
		for i := uint32(0); i < n; i++ {
			got, err := rb.Recv()
			if err != nil {
				recvDone <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			if len(got) != 4 || binary.BigEndian.Uint32(got) != i {
				recvDone <- fmt.Errorf("message %d: got % x", i, got)
				return
			}
		}
		recvDone <- nil
		// Keep the responder's receive path alive: control frames that
		// trail the flood (the COMMIT may arrive after the last data
		// frame) are handled inside Recv.
		for {
			if _, err := rb.Recv(); err != nil {
				return
			}
		}
	}()

	sendDone := make(chan error, 1)
	mid := make(chan struct{})
	go func() {
		var buf [4]byte
		for i := uint32(0); i < n; i++ {
			binary.BigEndian.PutUint32(buf[:], i)
			if err := ra.Send(buf[:]); err != nil {
				sendDone <- fmt.Errorf("send %d: %w", i, err)
				return
			}
			if i == n/2 {
				close(mid)
			}
		}
		sendDone <- nil
	}()

	<-mid
	granted, err := ra.Reconfigure(specRLECRC(), nil)
	if err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	_ = granted

	if err := <-sendDone; err != nil {
		t.Fatal(err)
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}

	if !ra.Spec().Equal(specRLECRC()) {
		t.Fatalf("initiator spec = %v", ra.Spec())
	}
	// The responder finishes its splice on its own receive path just after
	// mailing the mirror commit, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, completed, _ := rb.ReconfigCounts(); completed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("responder splice never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if !rb.Spec().Equal(specRLECRC()) {
		t.Fatalf("responder spec = %v", rb.Spec())
	}
	for name, rt := range map[string]*dacapo.Runtime{"initiator": ra, "responder": rb} {
		started, completed, aborted := rt.ReconfigCounts()
		if started != 1 || completed != 1 || aborted != 0 {
			t.Errorf("%s counters = %d/%d/%d, want 1/1/0", name, started, completed, aborted)
		}
	}
	// Traffic keeps flowing through the new generation in both directions.
	if err := rb.Send([]byte("post-splice")); err != nil {
		t.Fatal(err)
	}
	got, err := ra.Recv()
	if err != nil || string(got) != "post-splice" {
		t.Fatalf("post-splice recv %q, %v", got, err)
	}
}

// TestReconfigureRejectedByPolicy: a responder policy that refuses the
// proposal NACKs it; the initiator sees ErrReconfigRejected with the
// reason, both ends count the abort, and the connection keeps working on
// the old generation.
func TestReconfigureRejectedByPolicy(t *testing.T) {
	ra, rb := startPair(t, specCipherCRC())
	rb.SetReconfigPolicy(func(spec dacapo.Spec, req qos.Set) (qos.Set, error) {
		return nil, errors.New("budget exhausted")
	})

	// The responder handles the proposal on its receive path.
	delivered := make(chan []byte, 1)
	go func() {
		msg, err := rb.Recv()
		if err == nil {
			delivered <- msg
		}
	}()

	_, err := ra.Reconfigure(specRLECRC(), nil)
	if !errors.Is(err, dacapo.ErrReconfigRejected) {
		t.Fatalf("err = %v, want ErrReconfigRejected", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte("budget exhausted")) {
		t.Fatalf("reason not propagated: %v", err)
	}
	if !ra.Spec().Equal(specCipherCRC()) {
		t.Fatalf("spec changed after rejection: %v", ra.Spec())
	}

	// Old generation still carries data.
	if err := ra.Send([]byte("still alive")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-delivered:
		if string(got) != "still alive" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("connection dead after rejected reconfiguration")
	}

	if _, _, aborted := ra.ReconfigCounts(); aborted != 1 {
		t.Errorf("initiator aborted = %d, want 1", aborted)
	}
	if _, _, aborted := rb.ReconfigCounts(); aborted != 1 {
		t.Errorf("responder aborted = %d, want 1", aborted)
	}
}

// TestReconfigureUnsupportedBlockingTarget: a proposed graph containing a
// blocking module fails fast locally — nothing goes on the wire and the
// connection is untouched.
func TestReconfigureUnsupportedBlockingTarget(t *testing.T) {
	ra, rb := startPair(t, specCipherCRC())
	blocking := dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "window"}}}
	if _, err := ra.Reconfigure(blocking, nil); !errors.Is(err, dacapo.ErrReconfigUnsupported) {
		t.Fatalf("err = %v, want ErrReconfigUnsupported", err)
	}
	started, _, _ := ra.ReconfigCounts()
	if started != 0 {
		t.Errorf("local failure counted as started attempt: %d", started)
	}
	// Connection untouched.
	if err := ra.Send([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if got, err := rb.Recv(); err != nil || string(got) != "ok" {
		t.Fatalf("recv %q, %v", got, err)
	}
}

// TestReconfigureUnsupportedLockedRuntime: a runtime with blocking
// (locked) stages in its current graph cannot splice at all.
func TestReconfigureUnsupportedLockedRuntime(t *testing.T) {
	ra, _ := startPair(t, dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "window"}}})
	if _, err := ra.Reconfigure(dacapo.Spec{}, nil); !errors.Is(err, dacapo.ErrReconfigUnsupported) {
		t.Fatalf("err = %v, want ErrReconfigUnsupported", err)
	}
}

// TestReconfigureNackedByLockedPeer: an inline initiator proposing to a
// peer whose graph has a blocking stage gets a NACK from the peer's
// receive path — the locked side cannot be respliced in place.
func TestReconfigureNackedByLockedPeer(t *testing.T) {
	reg := modules.NewLibrary()
	a, b := pipePair(t)
	ra, err := dacapo.NewRuntime(dacapo.Spec{}, reg, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := dacapo.NewRuntime(dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "irq"}}}, reg, b)
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
	// The responder handles the proposal on its receive path.
	go rb.Recv()

	_, err = ra.Reconfigure(dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "crc32"}}}, nil)
	if !errors.Is(err, dacapo.ErrReconfigRejected) {
		t.Fatalf("err = %v, want ErrReconfigRejected", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte("blocking")) {
		t.Fatalf("reason = %v", err)
	}
	if _, _, aborted := rb.ReconfigCounts(); aborted != 1 {
		t.Errorf("locked peer aborted = %d, want 1", aborted)
	}
}

// TestReconfigureBusy: a second attempt while one is in flight is refused
// immediately without touching the wire.
func TestReconfigureBusy(t *testing.T) {
	ra, rb := startPair(t, specCipherCRC())
	release := make(chan struct{})
	rb.SetReconfigPolicy(func(spec dacapo.Spec, req qos.Set) (qos.Set, error) {
		<-release // hold the first attempt in flight
		return req, nil
	})
	go func() {
		// Drive the responder's receive path so the policy runs.
		rb.Recv()
	}()

	first := make(chan error, 1)
	go func() {
		_, err := ra.Reconfigure(specRLECRC(), nil)
		first <- err
	}()
	// Wait until the first attempt is registered as in flight.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if started, _, _ := ra.ReconfigCounts(); started == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first attempt never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := ra.Reconfigure(dacapo.Spec{}, nil); !errors.Is(err, dacapo.ErrReconfigBusy) {
		t.Fatalf("err = %v, want ErrReconfigBusy", err)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first attempt failed: %v", err)
	}
}

// flakyStart fails Start when told to — the failure-injection module for
// responder-side generation bring-up.
type flakyStart struct {
	dacapo.BaseModule
	fail bool
}

func (m *flakyStart) Name() string { return "flaky" }

func (m *flakyStart) Start(*dacapo.Context) error {
	if m.fail {
		return errors.New("flaky start exploded")
	}
	return nil
}

func (m *flakyStart) HandleDown(ctx *dacapo.Context, p *dacapo.Packet) error { return ctx.EmitDown(p) }
func (m *flakyStart) HandleUp(ctx *dacapo.Context, p *dacapo.Packet) error   { return ctx.EmitUp(p) }

func libraryWith(name string, f dacapo.Factory) *dacapo.Registry {
	reg := modules.NewLibrary()
	reg.Register(name, f)
	return reg
}

// TestReconfigureResponderStartFailureAborts: the responder accepts the
// proposal but its new generation fails to start; the attempt is NACKed
// with the bring-up error, both sides abort, and the old generation keeps
// carrying traffic.
func TestReconfigureResponderStartFailureAborts(t *testing.T) {
	regA := libraryWith("flaky", func(dacapo.Args) (dacapo.Module, error) {
		return &flakyStart{fail: false}, nil
	})
	regB := libraryWith("flaky", func(dacapo.Args) (dacapo.Module, error) {
		return &flakyStart{fail: true}, nil
	})
	a, b := pipePair(t)
	ra, err := dacapo.NewRuntime(dacapo.Spec{}, regA, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := dacapo.NewRuntime(dacapo.Spec{}, regB, b)
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

	delivered := make(chan []byte, 1)
	go func() {
		msg, err := rb.Recv()
		if err == nil {
			delivered <- msg
		}
	}()

	flaky := dacapo.Spec{Modules: []dacapo.ModuleSpec{{Name: "flaky"}}}
	_, err = ra.Reconfigure(flaky, nil)
	if !errors.Is(err, dacapo.ErrReconfigRejected) {
		t.Fatalf("err = %v, want ErrReconfigRejected", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte("flaky start exploded")) {
		t.Fatalf("bring-up error not propagated: %v", err)
	}
	if _, _, aborted := ra.ReconfigCounts(); aborted != 1 {
		t.Errorf("initiator aborted = %d, want 1", aborted)
	}
	if _, _, aborted := rb.ReconfigCounts(); aborted != 1 {
		t.Errorf("responder aborted = %d, want 1", aborted)
	}

	if err := ra.Send([]byte("survivor")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-delivered:
		if string(got) != "survivor" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("connection dead after aborted reconfiguration")
	}
}

// TestReconfigureOnReconfiguredCallback: completion callbacks fire once
// per splice with the new spec, on both roles.
func TestReconfigureOnReconfiguredCallback(t *testing.T) {
	ra, rb := startPair(t, specCipherCRC())
	var aFired, bFired atomic.Uint32
	ra.OnReconfigured(func(spec dacapo.Spec, _ qos.Set) {
		if spec.Equal(specRLECRC()) {
			aFired.Add(1)
		}
	})
	rb.OnReconfigured(func(spec dacapo.Spec, _ qos.Set) {
		if spec.Equal(specRLECRC()) {
			bFired.Add(1)
		}
	})
	go rb.Recv() // drive the responder
	if _, err := ra.Reconfigure(specRLECRC(), nil); err != nil {
		t.Fatal(err)
	}
	// The responder's callback runs on its receive path; give it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for bFired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if aFired.Load() != 1 || bFired.Load() != 1 {
		t.Fatalf("callbacks fired %d/%d, want 1/1", aFired.Load(), bFired.Load())
	}
}

// TestEscapedDataFrameTransparency: a payload that begins with the
// control magic must survive the stack unchanged (escape framing).
func TestEscapedDataFrameTransparency(t *testing.T) {
	ra, rb := startPair(t, dacapo.Spec{})
	payload := []byte{0xDA, 0xCA, 0x90, 0x0D, 0x5C, 0xF1, 0x9B, 0xE7, 0x01, 0x42}
	if err := ra.Send(payload); err != nil {
		t.Fatal(err)
	}
	got, err := rb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("magic-prefixed payload corrupted: % x", got)
	}
}

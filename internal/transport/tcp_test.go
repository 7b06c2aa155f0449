package transport

import (
	"bytes"
	"testing"

	"cool/internal/bufpool"
)

// tcpPair returns the two ends of a loopback tcp connection.
func tcpPair(t testing.TB) (client, server Channel) {
	t.Helper()
	m := NewTCPManager()
	l, err := m.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Channel, 1)
	go func() {
		ch, err := l.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- ch
	}()
	client, err = m.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	return client, server
}

// TestTCPKeepsNoBuffersBetweenMessages: once a frame is read, the staging
// buffer is back in the arena, and writes keep no copy of the payload.
func TestTCPKeepsNoBuffersBetweenMessages(t *testing.T) {
	client, server := tcpPair(t)
	defer client.Close()
	defer server.Close()
	for _, n := range []int{0, 1, 1000, tcpReadBuf + 3} {
		msg := bytes.Repeat([]byte{byte(n)}, n)
		if err := client.WriteMessage(msg); err != nil {
			t.Fatal(err)
		}
		got, err := server.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("%d-octet frame came back as %d octets", n, len(got))
		}
		PutBuffer(got)
		sc := server.(*tcpChannel)
		if sc.rbuf != nil {
			t.Fatalf("after a %d-octet frame the staging buffer is still held (%d unread)", n, sc.rlen-sc.rpos)
		}
	}
	cc := client.(*tcpChannel)
	for _, b := range cc.iov[:cap(cc.iov)] {
		if b != nil {
			t.Fatal("write gather list still aliases a payload")
		}
	}
}

// TestTCPWarmRoundTripAllocatesNothing: a warm write + read + recycle
// over tcp makes no heap allocation.
func TestTCPWarmRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget measured without -race")
	}
	if bufpool.DebugEnabled {
		t.Skip("pooldebug bookkeeping allocates; budget measured without -tags pooldebug")
	}
	client, server := tcpPair(t)
	defer client.Close()
	defer server.Close()
	msg := bytes.Repeat([]byte{7}, 1024)
	step := func() {
		if err := client.WriteMessage(msg); err != nil {
			t.Fatal(err)
		}
		got, err := server.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		PutBuffer(got)
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n > 0 {
		t.Fatalf("warm tcp round trip: %.1f allocs, want 0", n)
	}
}

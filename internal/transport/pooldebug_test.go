//go:build pooldebug

package transport

import (
	"strings"
	"testing"

	"cool/internal/bufpool"
)

// TestTCPCloseEmptiesLedger: a connection closed with unread bytes in its
// staging buffer, and one closed while a read is blocked, both hand every
// arena buffer back.
func TestTCPCloseEmptiesLedger(t *testing.T) {
	bufpool.DebugReset()
	client, server := tcpPair(t)
	// Two frames arrive in one read; only the first is consumed, so the
	// staging buffer is held with the second still in it.
	if err := client.(BatchChannel).WriteMessages([][]byte{[]byte("first"), []byte("second")}); err != nil {
		t.Fatal(err)
	}
	got, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	PutBuffer(got)
	// A read blocked on the client side is unblocked by Close.
	done := make(chan error, 1)
	go func() {
		_, err := client.ReadMessage()
		done <- err
	}()
	server.Close()
	if err := <-done; err == nil {
		t.Fatal("read on a closed connection succeeded")
	}
	client.Close()
	if leaks := bufpool.Leaks(); len(leaks) != 0 {
		t.Fatalf("arena buffers leaked after Close:\n%s", strings.Join(leaks, "\n"))
	}
}

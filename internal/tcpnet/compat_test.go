package tcpnet

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"zygos/internal/proto"
)

// A pre-redesign client speaking the legacy v1 framing must round-trip
// against the new server: v1 requests are parsed, executed, and answered
// with v1-framed replies (no magic byte, no status channel).
func TestV1ClientCompatRoundTrip(t *testing.T) {
	_, _, addr := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Pipeline a few v1 frames exactly as the old wire format encoded
	// them: 4-byte LE length, 8-byte LE ID, payload.
	const n = 5
	var stream []byte
	for i := uint64(1); i <= n; i++ {
		stream = proto.AppendMessage(stream, proto.Message{ID: i, Payload: []byte{byte('a' + i)}})
	}
	if _, err := nc.Write(stream); err != nil {
		t.Fatal(err)
	}

	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := uint64(1); i <= n; i++ {
		var hdr [proto.HeaderSize]byte
		if _, err := io.ReadFull(nc, hdr[:]); err != nil {
			t.Fatalf("reply %d header: %v", i, err)
		}
		if hdr[3] == proto.Magic2 {
			t.Fatalf("reply %d is v2-framed; a v1 client cannot parse it", i)
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		id := binary.LittleEndian.Uint64(hdr[4:12])
		if id != i || size != 1 {
			t.Fatalf("reply %d: id=%d size=%d", i, id, size)
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(nc, body); err != nil {
			t.Fatal(err)
		}
		if body[0] != byte('a'+i) {
			t.Fatalf("reply %d payload %q", i, body)
		}
	}
}

// readUntilClosed drains nc until the peer closes it, or fails the test
// after a deadline.
func readUntilClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1024)
	for {
		if _, err := nc.Read(buf); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("server never closed the malformed connection")
			}
			return
		}
	}
}

// A peer announcing an oversized frame must have its connection closed,
// without wedging the worker or leaking the parser error to other
// connections on the same server.
func TestOversizedHeaderClosesConn(t *testing.T) {
	rt, _, addr := startServer(t)

	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	hdr := make([]byte, proto.HeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], proto.MaxPayload+1)
	if _, err := bad.Write(hdr); err != nil {
		t.Fatal(err)
	}
	readUntilClosed(t, bad)

	// The worker must not be wedged: a well-formed connection keeps
	// round-tripping, and the runtime still quiesces.
	good, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	for i := 0; i < 10; i++ {
		resp, err := good.Call([]byte("still alive"))
		if err != nil {
			t.Fatalf("call %d after poison: %v", i, err)
		}
		if string(resp) != "still alive" {
			t.Fatalf("call %d corrupted: %q", i, resp)
		}
	}
	if !rt.Flush(5 * time.Second) {
		t.Fatal("runtime did not quiesce after poisoned connection")
	}
}

// A truncated header (peer dies mid-frame) must tear the connection down
// without affecting the worker or other connections.
func TestTruncatedHeaderTeardown(t *testing.T) {
	rt, _, addr := startServer(t)

	half, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// 5 of 12 header bytes, then a hard close.
	if _, err := half.Write([]byte{9, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	half.Close()

	good, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	resp, err := good.Call([]byte("unaffected"))
	if err != nil || string(resp) != "unaffected" {
		t.Fatalf("neighbour connection broken: %q %v", resp, err)
	}
	if !rt.Flush(5 * time.Second) {
		t.Fatal("runtime did not quiesce after truncated peer")
	}
}

// An oversized frame on one connection of a worker must not poison a
// sibling connection homed on the same worker mid-pipeline.
func TestPoisonDoesNotLeakAcrossConns(t *testing.T) {
	_, _, addr := startServer(t)
	good, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	done := make(chan error, 64)
	for i := 0; i < 64; i++ {
		if err := good.SendAsync([]byte("burst"), func(_ []byte, err error) { done <- err }); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	hdr := make([]byte, proto.HeaderSize)
	hdr[3] = 0x7f
	if _, err := bad.Write(hdr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("pipelined call %d failed: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d replies", i)
		}
	}
}

package proto

import (
	"bytes"
	"testing"
)

// Regression test for the consume() growth pathology: the old parser
// copied the whole remaining buffer down after every frame, so a burst
// of pipelined frames in one segment caused O(n²) byte moves and
// repeated grow-copy cycles. The lease parser advances an offset and
// compacts at most once per buffer wrap; parsing a steady pipelined
// stream must therefore not allocate at all once the pools are warm.
func TestParserPipelinedBurstSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops Puts under -race")
	}
	var stream []byte
	for i := 0; i < 64; i++ {
		stream = AppendMessage(stream, Message{Ver: 2, ID: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, 32)})
	}
	var p Parser
	cycle := func() {
		p.Feed(stream)
		n := 0
		for {
			m, ok, err := p.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			m.Release()
			n++
		}
		if n != 64 {
			t.Fatalf("parsed %d frames, want 64", n)
		}
	}
	cycle() // warm the pools
	if allocs := testing.AllocsPerRun(200, cycle); allocs >= 1 {
		t.Fatalf("pipelined burst parse allocates %.2f/op; want amortized zero", allocs)
	}
	if p.Buffered() != 0 {
		t.Fatalf("Buffered() = %d after full drain", p.Buffered())
	}
}

// An unreleased payload must pin its buffer: later feeds and parses may
// neither move nor overwrite it.
func TestUnreleasedPayloadStableAcrossFeeds(t *testing.T) {
	var p Parser
	p.Feed(AppendMessage(nil, Message{ID: 1, Payload: []byte("keep-me-around")}))
	m, ok, err := p.Next()
	if !ok || err != nil {
		t.Fatalf("Next: %v %v", ok, err)
	}
	// Hammer the parser with enough traffic to recycle pooled buffers
	// many times over.
	for i := 0; i < 100; i++ {
		p.Feed(AppendMessage(nil, Message{ID: uint64(i), Payload: bytes.Repeat([]byte{0xee}, 512)}))
		n, ok2, err2 := p.Next()
		if !ok2 || err2 != nil {
			t.Fatalf("feed %d: %v %v", i, ok2, err2)
		}
		n.Release()
	}
	if string(m.Payload) != "keep-me-around" {
		t.Fatalf("unreleased payload corrupted: %q", m.Payload)
	}
	m.Release()
}

// Release is per-message and idempotent on the zero value; double
// releases of distinct messages from one buffer must each count once.
func TestReleaseAccounting(t *testing.T) {
	var p Parser
	var stream []byte
	for i := 0; i < 3; i++ {
		stream = AppendMessage(stream, Message{ID: uint64(i), Payload: []byte{byte(i)}})
	}
	p.Feed(stream)
	var msgs []Message
	for {
		m, ok, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		msgs = append(msgs, m)
	}
	for i := range msgs {
		msgs[i].Release()
		msgs[i].Release() // second release of the same Message is a no-op
	}
	var zero Message
	zero.Release() // zero value is safe
}

// A frame split across many small feeds must still parse without
// corrupting the lease bookkeeping, including when the buffer grows
// while a previous payload is unreleased.
func TestSplitFeedWithPinnedPayload(t *testing.T) {
	var p Parser
	p.Feed(AppendMessage(nil, Message{ID: 1, Payload: []byte("pinned")}))
	pinned, ok, _ := p.Next()
	if !ok {
		t.Fatal("missing first message")
	}
	big := AppendMessage(nil, Message{Ver: 2, ID: 2, Payload: bytes.Repeat([]byte{7}, 4096)})
	for off := 0; off < len(big); off += 13 {
		end := off + 13
		if end > len(big) {
			end = len(big)
		}
		p.Feed(big[off:end])
	}
	m, ok, err := p.Next()
	if !ok || err != nil {
		t.Fatalf("big frame: %v %v", ok, err)
	}
	if len(m.Payload) != 4096 || m.Payload[0] != 7 {
		t.Fatalf("big payload corrupted")
	}
	if string(pinned.Payload) != "pinned" {
		t.Fatalf("pinned payload corrupted: %q", pinned.Payload)
	}
	m.Release()
	pinned.Release()
}

// ReleaseBuffer (used when a connection is poisoned) must keep the
// parse error sticky: bytes fed afterwards — e.g. stream segments that
// were queued behind the malformed frame and could themselves encode
// valid-looking frames — must never be parsed as fresh requests.
func TestReleaseBufferKeepsErrorSticky(t *testing.T) {
	var p Parser
	bad := make([]byte, HeaderSize)
	bad[0], bad[1], bad[2], bad[3] = 0xff, 0xff, 0xff, 0x7f // oversized v1 length
	p.Feed(bad)
	if _, _, err := p.Next(); err == nil {
		t.Fatal("oversized frame must error")
	}
	p.ReleaseBuffer()
	if p.Buffered() != 0 {
		t.Fatalf("Buffered() = %d after ReleaseBuffer", p.Buffered())
	}
	// A perfectly valid frame arriving after the poison point must not
	// resurrect the stream.
	p.Feed(AppendMessage(nil, Message{ID: 9, Payload: []byte("smuggled")}))
	if m, ok, err := p.Next(); err == nil || ok {
		t.Fatalf("poisoned parser accepted a frame: %+v ok=%v err=%v", m, ok, err)
	}
	// Reset still clears the error for deliberate reuse.
	p.Reset()
	p.Feed(AppendMessage(nil, Message{ID: 1}))
	if _, ok, err := p.Next(); !ok || err != nil {
		t.Fatal("parser must recover after Reset")
	}
}

// The v2 reply encode path into a reused buffer must be allocation-free.
func TestAppendFrameV2NoAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 64)
	buf := make([]byte, 0, HeaderSizeV2+len(payload))
	allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendMessage(buf[:0], Message{Ver: 2, ID: 7, Payload: payload})
	})
	if allocs != 0 {
		t.Fatalf("v2 AppendMessage into reused buffer allocates %.2f/op", allocs)
	}
}

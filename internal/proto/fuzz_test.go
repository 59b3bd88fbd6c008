package proto

import (
	"encoding/binary"
	"testing"
)

// FuzzParser throws arbitrary byte streams at the Parser — seeded with
// well-formed v1/v2/v3/v4 frames, deadline extensions, truncations, and
// corrupt header bytes — and checks the invariants that matter for a
// server parsing hostile input: no panics, errors are sticky, every
// yielded message respects MaxPayload, and parse and encode are
// inverses: re-encoding a yielded message with AppendMessage and
// parsing it again gives the same message.
func FuzzParser(f *testing.F) {
	// Well-formed single frames of each version.
	f.Add(AppendMessage(nil, Message{ID: 1, Payload: []byte("v1")}))
	f.Add(AppendMessage(nil, Message{Ver: 2, ID: 2, Status: StatusAppError, Payload: []byte("v2")}))
	f.Add(AppendMessage(nil, Message{Ver: 3, ID: 3, Method: 7, Payload: []byte("v3")}))
	f.Add(AppendMessage(nil, Message{Ver: 4, ID: 4, Method: 7, SubID: 9, Kind: KindSubscribe, Payload: []byte("v4")}))
	f.Add(AppendMessage(nil, Message{Ver: 4, ID: 5, SubID: 1, Kind: KindPush, Payload: []byte("push")}))
	// A deadline-budget frame (trailing 4-byte extension on v3).
	f.Add(AppendMessage(nil, Message{Ver: 3, ID: 6, Method: 1, Budget: 1500, Payload: []byte("dl")}))
	// Mixed-version stream.
	mixed := AppendMessage(nil, Message{ID: 7, Payload: []byte("a")})
	mixed = AppendMessage(mixed, Message{Ver: 2, ID: 8, Payload: []byte("b")})
	mixed = AppendMessage(mixed, Message{Ver: 3, ID: 9, Method: 2, Payload: []byte("c")})
	mixed = AppendMessage(mixed, Message{Ver: 4, ID: 10, SubID: 2, Kind: KindUnsubscribe})
	f.Add(mixed)
	// Truncated v4 header, corrupt kind byte, corrupt deadline ext.
	f.Add(AppendMessage(nil, Message{Ver: 4, ID: 11, Kind: KindPush, Payload: []byte("tr")})[:13])
	bad := AppendMessage(nil, Message{Ver: 4, ID: 12, Kind: KindPush})
	bad[4] = 0xEE
	f.Add(bad)
	short := AppendMessage(nil, Message{Ver: 2, ID: 13, Budget: 99})
	f.Add(short[:len(short)-2])
	// Oversized v1 length prefix.
	huge := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(huge, MaxPayload+1)
	f.Add(huge)
	// A v2 deadline frame, and a v1/v2/v3 stream with and without
	// extensions, so the round trip sees each version both ways.
	f.Add(AppendMessage(nil, Message{Ver: 2, ID: 14, Flags: FlagOneWay, Budget: 7, Payload: []byte("dl2")}))
	ext := AppendMessage(nil, Message{Ver: 3, ID: 15, Method: 3, Budget: 1, Payload: []byte("x")})
	ext = AppendMessage(ext, Message{Ver: 2, ID: 16, Status: StatusShed})
	ext = AppendMessage(ext, Message{Ver: 3, ID: 17, Method: 4})
	f.Add(AppendMessage(ext, Message{Ver: 2, ID: 18, Budget: 1 << 31}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Parser
		defer p.Reset()
		sawErr := false
		// Feed in two chunks to exercise the compaction/migration path,
		// then drain.
		half := len(data) / 2
		for _, chunk := range [][]byte{data[:half], data[half:]} {
			p.Feed(chunk)
			for {
				m, ok, err := p.Next()
				if err != nil {
					sawErr = true
					// Errors must be sticky: a poisoned stream never
					// yields another message.
					if _, ok2, err2 := p.Next(); ok2 || err2 == nil {
						t.Fatalf("error not sticky: ok=%v err=%v after %v", ok2, err2, err)
					}
					break
				}
				if !ok {
					break
				}
				if len(m.Payload) > MaxPayload {
					t.Fatalf("payload %d exceeds MaxPayload", len(m.Payload))
				}
				if m.Ver == 4 && (m.Kind < KindSubscribe || m.Kind > KindPush) {
					t.Fatalf("v4 message with invalid kind %d", m.Kind)
				}
				var q Parser
				q.Feed(AppendMessage(nil, m))
				again, ok, err := q.Next()
				if err != nil || !ok || !sameMessage(again, m) {
					t.Fatalf("re-encoded %+v parsed as %+v ok=%v err=%v", m, again, ok, err)
				}
				if q.Buffered() != 0 {
					t.Fatalf("re-encoded %+v left %d bytes unparsed", m, q.Buffered())
				}
				again.Release()
				q.Reset()
				m.Release()
			}
			if sawErr {
				break
			}
		}
	})
}

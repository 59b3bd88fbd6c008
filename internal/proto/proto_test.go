package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// codecCases is the one table of wire shapes the codec tests run over:
// every frame version, plus v3 carrying the deadline extension.
var codecCases = []struct {
	name string
	m    Message
}{
	{"v1", Message{ID: 42, Payload: []byte("hello")}},
	{"v2", Message{Ver: 2, ID: 99, Payload: []byte("v2 body"), Flags: FlagOneWay, Status: StatusShed}},
	{"v3", Message{Ver: 3, ID: 77, Method: 0xBEEF, Payload: []byte("v3 body"), Flags: FlagOneWay, Status: StatusNoMethod}},
	{"v3+budget", Message{Ver: 3, ID: 78, Method: 5, Payload: []byte("budgeted"), Status: StatusAppError, Budget: 1500}},
	{"v4", Message{Ver: 4, ID: 901, Method: 0x0CAF, SubID: 0xDEADBEEF, Kind: KindPush, Payload: []byte("v4 body")}},
}

// forVersion runs check as a subtest on every codecCases row of frame
// version ver (0 for v1).
func forVersion(t *testing.T, ver uint8, check func(*testing.T, Message)) {
	t.Helper()
	for _, tc := range codecCases {
		if tc.m.Ver == ver {
			t.Run(tc.name, func(t *testing.T) { check(t, tc.m) })
		}
	}
}

// sameMessage reports whether two messages agree on every wire field.
func sameMessage(a, b Message) bool {
	return a.ID == b.ID && a.Ver == b.Ver && a.Method == b.Method && a.Kind == b.Kind &&
		a.SubID == b.SubID && a.Flags == b.Flags && a.Status == b.Status &&
		a.Budget == b.Budget && bytes.Equal(a.Payload, b.Payload)
}

// checkRoundTrip encodes want, checks the size FrameSizeMsg predicts,
// and parses it back whole.
func checkRoundTrip(t *testing.T, want Message) {
	frame := AppendMessage(nil, want)
	if len(frame) != FrameSizeMsg(want) {
		t.Fatalf("encoded length %d, FrameSizeMsg says %d", len(frame), FrameSizeMsg(want))
	}
	var p Parser
	p.Feed(frame)
	m, ok, err := p.Next()
	if err != nil || !ok {
		t.Fatalf("Next: %v %v", ok, err)
	}
	if !sameMessage(m, want) {
		t.Fatalf("got %+v, want %+v", m, want)
	}
	if _, ok, _ := p.Next(); ok {
		t.Fatal("no more messages expected")
	}
	if p.Buffered() != 0 {
		t.Fatal("buffer should be empty")
	}
}

// checkByteAtATime feeds the encoded frame one byte at a time: the
// message must complete exactly with the last byte.
func checkByteAtATime(t *testing.T, want Message) {
	var p Parser
	for _, b := range AppendMessage(nil, want) {
		if _, ok, _ := p.Next(); ok {
			t.Fatal("message completed early")
		}
		p.Feed([]byte{b})
	}
	m, ok, err := p.Next()
	if err != nil || !ok || !sameMessage(m, want) {
		t.Fatalf("got %+v ok=%v err=%v, want %+v", m, ok, err, want)
	}
}

// checkEmptyPayload round-trips want with its payload removed.
func checkEmptyPayload(t *testing.T, want Message) {
	want.Payload = nil
	checkRoundTrip(t, want)
}

func TestRoundTrip(t *testing.T)   { forVersion(t, 0, checkRoundTrip) }
func TestV2RoundTrip(t *testing.T) { forVersion(t, 2, checkRoundTrip) }
func TestV3RoundTrip(t *testing.T) { forVersion(t, 3, checkRoundTrip) }
func TestV4RoundTrip(t *testing.T) { forVersion(t, 4, checkRoundTrip) }

func TestByteAtATime(t *testing.T)   { forVersion(t, 0, checkByteAtATime) }
func TestV2ByteAtATime(t *testing.T) { forVersion(t, 2, checkByteAtATime) }
func TestV3ByteAtATime(t *testing.T) { forVersion(t, 3, checkByteAtATime) }
func TestV4ByteAtATime(t *testing.T) { forVersion(t, 4, checkByteAtATime) }

func TestEmptyPayload(t *testing.T)            { forVersion(t, 0, checkEmptyPayload) }
func TestV2EmptyPayloadAndOneWay(t *testing.T) { forVersion(t, 2, checkEmptyPayload) }

func TestV3EmptyPayloadAndMethodZero(t *testing.T) {
	checkRoundTrip(t, Message{Ver: 3, ID: 9})
}

// Every version's encoding is selected by Ver alone: the fourth byte is
// the version's magic (the top byte of the length word on v1) and the
// header has the version's fixed size, plus the extension on a budgeted
// v2/v3 frame.
func TestAppendMessageVersionSelection(t *testing.T) {
	for _, tc := range codecCases {
		f := AppendMessage(nil, tc.m)
		magic, hdr := byte(0), HeaderSize
		if tc.m.Ver != 0 {
			magic, hdr = magicBase+tc.m.Ver, headerSize[tc.m.Ver]
		}
		if tc.m.Budget != 0 {
			hdr += DeadlineExtSize
		}
		if f[3] != magic || len(f) != hdr+len(tc.m.Payload) {
			t.Errorf("%s: magic %#x len %d, want %#x and %d", tc.name, f[3], len(f), magic, hdr+len(tc.m.Payload))
		}
	}
}

// v4 never grows a deadline extension, even with a budget and
// FlagDeadline set on the message; FrameSizeMsg agrees.
func TestV4VersionSelectionAndSize(t *testing.T) {
	m := Message{Ver: 4, ID: 2, Method: 9, SubID: 3, Kind: KindUnsubscribe, Payload: []byte("xy"),
		Flags: FlagDeadline, Budget: 1000}
	f := AppendMessage(nil, m)
	if f[3] != Magic4 || len(f) != HeaderSizeV4+2 {
		t.Fatalf("got magic %#x len %d, want a plain v4 frame", f[3], len(f))
	}
	if got := FrameSizeMsg(m); got != len(f) {
		t.Fatalf("FrameSizeMsg = %d, want %d", got, len(f))
	}
	var p Parser
	p.Feed(f)
	got, ok, err := p.Next()
	if err != nil || !ok {
		t.Fatalf("Next: %v %v", ok, err)
	}
	if got.Ver != 4 || got.Kind != KindUnsubscribe || got.SubID != 3 || got.Method != 9 ||
		got.Flags&FlagDeadline != 0 || got.Budget != 0 {
		t.Fatalf("got %+v (v4 must not carry a deadline extension)", got)
	}
}

// An invalid v4 kind (0 or >3) poisons the stream: garbage can't be
// silently misrouted as control traffic.
func TestV4InvalidKindPoisons(t *testing.T) {
	for _, kind := range []uint8{0, 4, 0xFF} {
		var p Parser
		frame := AppendMessage(nil, Message{Ver: 4, ID: 1, Kind: KindPush})
		frame[4] = kind
		p.Feed(frame)
		if _, _, err := p.Next(); err == nil {
			t.Errorf("kind %d: expected a parse error", kind)
		}
		// The error is sticky.
		if _, _, err := p.Next(); err == nil {
			t.Errorf("kind %d: error must be sticky", kind)
		}
	}
}

// No valid v1 frame can alias a magic byte: the fourth byte of a v1
// header is the top byte of the length, and any length whose top byte
// is a magic exceeds MaxPayload.
func checkMagic(t *testing.T, magic uint32) {
	if aliased := magic << 24; aliased <= MaxPayload {
		t.Fatalf("magic-aliased v1 length %d must exceed MaxPayload %d", aliased, MaxPayload)
	}
}

func TestMagicDoesNotAliasV1(t *testing.T) {
	checkMagic(t, Magic2)
	f := AppendMessage(nil, Message{ID: 1, Payload: make([]byte, MaxPayload)})
	if f[3] != 0 {
		t.Fatalf("maximum v1 frame carries %#x in the magic byte", f[3])
	}
}
func TestMagic3DoesNotAliasV1(t *testing.T) { checkMagic(t, Magic3) }
func TestMagic4DoesNotAliasV1(t *testing.T) { checkMagic(t, Magic4) }

// A stream may interleave every frame version; the parser must decode
// them in order, each tagged with its version.
func TestMixedVersionStream(t *testing.T) {
	var stream []byte
	var want []Message
	for i := 0; i < 40; i++ {
		m := codecCases[i%len(codecCases)].m
		m.ID, m.Payload = uint64(i), bytes.Repeat([]byte{byte(i)}, i%7)
		want = append(want, m)
		stream = AppendMessage(stream, m)
	}
	var p Parser
	p.Feed(stream)
	for i, w := range want {
		m, ok, err := p.Next()
		if err != nil || !ok {
			t.Fatalf("message %d missing: %v", i, err)
		}
		if !sameMessage(m, w) {
			t.Fatalf("message %d: got %+v, want %+v", i, m, w)
		}
	}
	if _, ok, _ := p.Next(); ok {
		t.Fatal("extra message")
	}
}

func TestPipelinedMessages(t *testing.T) {
	var p Parser
	var stream []byte
	for i := 0; i < 50; i++ {
		stream = AppendMessage(stream, Message{ID: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, i)})
	}
	p.Feed(stream)
	for i := 0; i < 50; i++ {
		m, ok, err := p.Next()
		if err != nil || !ok {
			t.Fatalf("message %d missing: %v", i, err)
		}
		if m.ID != uint64(i) || len(m.Payload) != i {
			t.Fatalf("message %d corrupted: %+v", i, m)
		}
	}
	if _, ok, _ := p.Next(); ok {
		t.Fatal("extra message")
	}
}

func TestFrameTooLarge(t *testing.T) {
	var p Parser
	bad := make([]byte, HeaderSize)
	bad[0] = 0xff
	bad[1] = 0xff
	bad[2] = 0xff
	bad[3] = 0x7f
	p.Feed(bad)
	_, _, err := p.Next()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// Error is sticky.
	p.Feed([]byte{0})
	if _, _, err := p.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("error must be sticky")
	}
	// Reset clears it.
	p.Reset()
	p.Feed(AppendMessage(nil, Message{ID: 1}))
	if _, ok, err := p.Next(); !ok || err != nil {
		t.Fatal("parser must recover after Reset")
	}
	// One bound covers every version: a v1 frame announcing exactly
	// 16 MiB is one byte past it.
	p.Reset()
	binary.LittleEndian.PutUint32(bad, MaxPayload+1)
	p.Feed(bad)
	if _, _, err := p.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("v1 length MaxPayload+1: want ErrFrameTooLarge, got %v", err)
	}
	p.Reset()
}

func TestPayloadCopied(t *testing.T) {
	var p Parser
	frame := AppendMessage(nil, Message{ID: 1, Payload: []byte("abc")})
	p.Feed(frame)
	m, _, _ := p.Next()
	p.Feed(bytes.Repeat([]byte{0xee}, 64)) // overwrite internal buffer
	if string(m.Payload) != "abc" {
		t.Fatal("payload must be stable after further feeds")
	}
}

func TestFrameSize(t *testing.T) {
	if FrameSizeV3(100) != HeaderSizeV3+100 {
		t.Fatal("FrameSizeV3 wrong")
	}
	for _, tc := range codecCases {
		m := tc.m
		m.Payload = make([]byte, 100)
		if f := AppendMessage(nil, m); len(f) != FrameSizeMsg(m) {
			t.Errorf("%s: encoded %d bytes, FrameSizeMsg says %d", tc.name, len(f), FrameSizeMsg(m))
		}
	}
}

func TestStatusErrorAndText(t *testing.T) {
	e := &StatusError{Code: StatusShed, Msg: "queue full"}
	if e.Error() == "" || StatusText(StatusShed) == "" {
		t.Fatal("empty renderings")
	}
	var se *StatusError
	var err error = e
	if !errors.As(err, &se) || se.Code != StatusShed {
		t.Fatal("errors.As must match StatusError")
	}
	if StatusText(200) == "" {
		t.Fatal("unknown codes must still render")
	}
	if (&StatusError{Code: StatusInternal}).Error() == "" {
		t.Fatal("message-less errors must render")
	}
}

// randomMessage draws a message of a random version up to maxVer, with
// the header fields that version carries filled at random.
func randomMessage(rng *rand.Rand, id uint64, payload []byte, maxVer int) Message {
	m := Message{ID: id, Payload: payload}
	v := 1 + rng.Intn(maxVer)
	if v == 1 {
		return m
	}
	m.Ver = uint8(v)
	m.Flags = uint8(rng.Intn(2))
	m.Status = uint8(rng.Intn(5))
	if v >= 3 {
		m.Method = uint16(rng.Intn(1 << 16))
	}
	if v == 4 {
		m.Kind = uint8(1 + rng.Intn(3))
		m.SubID = rng.Uint32()
	} else if rng.Intn(2) == 0 {
		m.Budget = rng.Uint32()
	}
	return m
}

// checkRandomSplit is the property behind the random-split tests: any
// sequence of messages of versions up to maxVer, encoded and then fed in
// arbitrary chunk sizes, decodes identically and in order.
func checkRandomSplit(t *testing.T, maxVer int) {
	f := func(payloads [][]byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var stream []byte
		var want []Message
		for i, pl := range payloads {
			if len(pl) > 1024 {
				pl = pl[:1024]
			}
			m := randomMessage(rng, uint64(i), pl, maxVer)
			want = append(want, m)
			stream = AppendMessage(stream, m)
		}
		var p Parser
		var got []Message
		for off := 0; off < len(stream); {
			n := min(1+rng.Intn(37), len(stream)-off)
			p.Feed(stream[off : off+n])
			off += n
			for {
				m, ok, err := p.Next()
				if err != nil {
					return false
				}
				if !ok {
					break
				}
				got = append(got, m)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !sameMessage(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSplitRoundTrip(t *testing.T)   { checkRandomSplit(t, 1) }
func TestV2RandomSplitRoundTrip(t *testing.T) { checkRandomSplit(t, 2) }
func TestV3RandomSplitRoundTrip(t *testing.T) { checkRandomSplit(t, 3) }
func TestV4RandomSplitRoundTrip(t *testing.T) { checkRandomSplit(t, 4) }

// BenchmarkParse parses one pre-encoded 64-byte-payload frame per
// iteration, per wire shape.
func BenchmarkParse(b *testing.B) {
	for _, tc := range codecCases {
		b.Run(tc.name, func(b *testing.B) {
			m := tc.m
			m.Payload = make([]byte, 64)
			frame := AppendMessage(nil, m)
			var p Parser
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Feed(frame)
				got, ok, _ := p.Next()
				if !ok {
					b.Fatal("missing message")
				}
				got.Release()
			}
		})
	}
}

// BenchmarkRoundTrip is the codec's share of one request: encode a
// 16-byte-payload frame into a reused buffer, parse it, release it.
func BenchmarkRoundTrip(b *testing.B) {
	for _, tc := range codecCases {
		b.Run(tc.name, func(b *testing.B) {
			m := tc.m
			m.Payload = make([]byte, 16)
			buf := make([]byte, 0, FrameSizeMsg(m))
			var p Parser
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendMessage(buf[:0], m)
				p.Feed(buf)
				got, ok, _ := p.Next()
				if !ok {
					b.Fatal("missing message")
				}
				got.Release()
			}
		})
	}
}

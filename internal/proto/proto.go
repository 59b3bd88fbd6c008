// Package proto implements the wire framing used by the runtime's RPC
// transports. Four frame versions coexist on the same stream; one
// encoder (AppendMessage) writes them all and one Parser reads them all.
// All integers are little-endian:
//
//	v1  [len:4][id:8]                                                12 bytes
//	v2  [len:3][0xA2][flags][status][id:8]                 [budget:4] 14 bytes
//	v3  [len:3][0xA3][flags][status][method:2][id:8]       [budget:4] 16 bytes
//	v4  [len:3][0xA4][kind][flags][status][method:2][subID:4][id:8]   21 bytes
//
// The length counts payload bytes only, and the payload follows the
// header. v1 is the legacy frame. v2 adds a flags byte (one-way
// markers) and a status byte (wire-level error codes, so a reply can be
// an error distinguishable from a payload). v3 adds the method, which
// names the operation (GET vs SET, NewOrder vs Payment) so servers route
// without inspecting payloads. v4 carries the streaming/pub-sub pair —
// SUBSCRIBE/UNSUBSCRIBE requests and server-initiated PUSH frames — with
// a kind byte, the topic in the method field and a subscription ID; a
// PUSH repurposes the request ID as the published frame's 32-bit ID. A
// v2 or v3 frame with FlagDeadline set carries the 4-byte deadline
// extension between header and payload; v4 never does.
//
// The versions are distinguished by the fourth header byte: it is the
// most significant byte of the v1 length word, which any in-range v1
// frame leaves at 0x00, while every v2–v4 frame sets it to its magic
// (0xA0 plus the version). A v1 peer therefore keeps round-tripping
// against a newer server unchanged (though without a status channel its
// error replies degrade to plain payloads), and a malformed stream is
// detected exactly as before. Replies always mirror the request's frame
// version, so a peer never receives a header it cannot parse — and PUSH
// frames only ever flow to peers that sent a v4 SUBSCRIBE, proving they
// parse v4 headers.
//
// The Parser is incremental: it accepts arbitrary byte-stream fragments —
// including fragments that split a header or pipeline several back-to-back
// requests, the case §4.3 of the paper is about — and yields complete
// messages of any version in order.
//
// # Buffer ownership
//
// Parsed payloads are views into a pooled, reference-counted parse
// buffer, not copies. A Message obtained from Parser.Next (or a
// Dispatcher callback) pins its buffer until Message.Release is called;
// releasing the last reference returns the buffer to the pool for
// reuse. Consumers that never Release simply leave the buffer to the
// garbage collector — correct, just not allocation-free. A payload
// needed beyond Release must be copied first.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"zygos/internal/bufpool"
)

// HeaderSize is the fixed v1 frame-header length in bytes.
const HeaderSize = 12

// HeaderSizeV2 is the fixed v2 frame-header length in bytes.
const HeaderSizeV2 = 14

// HeaderSizeV3 is the fixed v3 frame-header length in bytes: the v2
// header plus the 16-bit method identifier.
const HeaderSizeV3 = 16

// HeaderSizeV4 is the fixed v4 (streaming/pub-sub) frame-header length
// in bytes: length(3) + magic + kind + flags + status + topic(2) +
// subscription ID(4) + request/frame ID(8).
const HeaderSizeV4 = 21

// headerSize maps Message.Ver to the version's fixed header length
// (index 1 is v1 too, so a hand-built Ver: 1 encodes as v1).
var headerSize = [...]int{HeaderSize, HeaderSize, HeaderSizeV2, HeaderSizeV3, HeaderSizeV4}

// Magic2, Magic3 and Magic4 mark v2, v3 and v4 frames in the fourth
// header byte: magicBase plus the version. Interpreted as the top byte
// of a v1 length each would announce a payload of more than 2.7 GB, far
// above MaxPayload, so no valid v1 frame can alias a newer one.
const (
	magicBase = 0xA0
	Magic2    = magicBase + 2
	Magic3    = magicBase + 3
	Magic4    = magicBase + 4
)

// v4 frame kinds, carried in the fifth header byte. Zero is invalid so
// a v4 message is always distinguishable from the zero Message.
const (
	// KindSubscribe is a client request to register a subscription on a
	// topic: the payload carries the encoded backpressure options and
	// filter, the subscription ID names the client-chosen demux key for
	// future PUSH frames, and the request ID is acked by a mirrored v4
	// reply of the same kind.
	KindSubscribe uint8 = 1
	// KindUnsubscribe is a client request to retire a subscription; the
	// subscription ID names it and the request ID is acked as above.
	KindUnsubscribe uint8 = 2
	// KindPush is a server-initiated published frame: the topic and
	// subscription ID route it to the client-side handler, and the
	// request ID field carries the published frame's 32-bit ID (the
	// CAN-bus-style identifier filters match on).
	KindPush uint8 = 3
)

// MaxPayload bounds a frame's payload in every version: it is the
// largest length the 24-bit v2–v4 length field can carry, and it keeps a
// malformed or hostile v1 peer from forcing unbounded buffering.
const MaxPayload = 1<<24 - 1

// MethodHealth is the reserved v3 method ID of piggybacked health
// frames: a server configured for depth reporting appends one tiny
// unsolicited v3 frame (ID 0, this method, a HealthPayloadSize-byte
// payload carrying its current scheduling depth) to each egress reply
// batch bound for a v3-speaking peer. Clients that installed a depth
// hook (Dispatcher.SetDepthFunc) consume it; clients that did not drop
// it silently, since request ID 0 is never allocated. The cluster tier's
// tail-aware balancer routes on these — the in-network-scheduling
// analogue of polling Stats() queue depths, without a polling RPC.
// Application muxes must not register handlers on it.
const MethodHealth uint16 = 0xFFFF

// HealthPayloadSize is the fixed payload length of a health frame: a
// 32-bit little-endian queue depth.
const HealthPayloadSize = 4

// ErrFrameTooLarge is returned when a header announces a payload larger
// than MaxPayload.
var ErrFrameTooLarge = errors.New("proto: frame exceeds maximum payload size")

// ErrPayloadTooLarge is returned by senders refusing to encode a payload
// larger than MaxPayload. Encoding it anyway would corrupt the stream
// (the v2–v4 length field is 24 bits wide).
var ErrPayloadTooLarge = errors.New("proto: payload exceeds maximum frame size")

// Frame flag bits (v2–v4; v1 has no flags byte).
const (
	// FlagOneWay marks a request whose sender expects no reply; the
	// server executes it and sends nothing back.
	FlagOneWay uint8 = 1 << 0
	// FlagDeadline marks a v2/v3 frame carrying a trailing deadline
	// extension: a DeadlineExtSize-byte little-endian deadline budget in
	// microseconds immediately after the fixed header, before the
	// payload. The length field still counts payload bytes only, so a
	// peer that understands the flag skips the extension and an old peer
	// never sees it (the flag is only set toward servers that already
	// speak this framing — replies never carry it). The budget is the
	// *remaining* time the sender is willing to wait; each forwarding
	// tier re-stamps the frame with what is left, so downstream tiers
	// shed work the client has already given up on.
	FlagDeadline uint8 = 1 << 1
)

// DeadlineExtSize is the length of the deadline extension that follows
// the fixed v2/v3 header when FlagDeadline is set: a 32-bit
// little-endian budget in microseconds (~71 minutes max — far beyond
// any microsecond-scale SLO).
const DeadlineExtSize = 4

// Wire status codes (v2–v4). A v1 reply has no status channel and is
// always implicitly StatusOK.
const (
	// StatusOK is a successful reply; the payload is the response body.
	StatusOK uint8 = 0
	// StatusAppError is an application-level error; the payload is a
	// human-readable message.
	StatusAppError uint8 = 1
	// StatusShed reports that admission control rejected the request
	// before it ran; the client may retry elsewhere or back off.
	StatusShed uint8 = 2
	// StatusInternal reports a server-side failure unrelated to the
	// request contents.
	StatusInternal uint8 = 3
	// StatusNoMethod reports that the request named a method no handler
	// is registered for (the Mux's NotFound reply).
	StatusNoMethod uint8 = 4
	// StatusDeadlineExceeded reports that the request's deadline budget
	// expired before a handler ran (shed at dispatch) or before a
	// forwarding tier was willing to send it on. The work was NOT
	// executed; the client had already given up, so the server spent
	// nothing on it.
	StatusDeadlineExceeded uint8 = 5
)

// StatusText returns a short human-readable name for a status code.
func StatusText(code uint8) string {
	switch code {
	case StatusOK:
		return "ok"
	case StatusAppError:
		return "application error"
	case StatusShed:
		return "shed by admission control"
	case StatusInternal:
		return "internal server error"
	case StatusNoMethod:
		return "no such method"
	case StatusDeadlineExceeded:
		return "deadline budget exceeded"
	}
	return fmt.Sprintf("status %d", code)
}

// ErrShed and ErrDeadlineExceeded are errors.Is targets for the two
// overload statuses, so callers can branch on "back off and retry"
// versus "the work is already useless" without unpacking *StatusError:
//
//	if errors.Is(err, proto.ErrShed) { backoff(RetryAfter(err)) }
var (
	ErrShed             = &StatusError{Code: StatusShed}
	ErrDeadlineExceeded = &StatusError{Code: StatusDeadlineExceeded}
)

// StatusError is the typed error surfaced to callers when a reply
// carries a non-OK wire status.
type StatusError struct {
	// Code is the wire status byte.
	Code uint8
	// Msg is the reply payload, by convention a human-readable message.
	Msg string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("zygos: %s (status %d)", StatusText(e.Code), e.Code)
	}
	return fmt.Sprintf("zygos: %s (status %d): %s", StatusText(e.Code), e.Code, e.Msg)
}

// Is matches two StatusErrors by code alone, making
// errors.Is(err, ErrShed) work regardless of the message the server
// attached (e.g. the retry-after hint in a shed payload).
func (e *StatusError) Is(target error) bool {
	t, ok := target.(*StatusError)
	return ok && t.Code == e.Code
}

// Message is one framed request or response.
type Message struct {
	ID      uint64
	Payload []byte
	// Ver is the frame version: the one the message arrived in (the
	// parser sets 2, 3 or 4, and leaves 0 for v1) and the one
	// AppendMessage encodes. Replies mirror the request's version so a
	// legacy peer never sees a header it cannot parse. Zero means v1.
	Ver uint8
	// Method is the method identifier naming the operation the request
	// targets (the topic on v4); zero on v1/v2 frames (the legacy route).
	Method uint16
	// Flags is the flags byte (FlagOneWay, ...); zero on v1 frames.
	Flags uint8
	// Status is the status byte; StatusOK on v1 frames.
	Status uint8
	// Kind is the v4 frame kind (KindSubscribe/KindUnsubscribe/KindPush);
	// zero on other versions.
	Kind uint8
	// SubID is the v4 subscription identifier: the client-chosen demux
	// key PUSH frames are routed by, echoed on subscribe/unsubscribe
	// acks. Zero on other versions.
	SubID uint32
	// Budget is the request's remaining deadline budget in microseconds;
	// zero means no deadline. A nonzero budget on a v2/v3 message makes
	// the encoder set FlagDeadline and emit the deadline extension; v1
	// and v4 frames cannot carry it and silently drop it.
	Budget uint32

	// lease pins the parse buffer Payload points into; nil for messages
	// built by hand (whose payloads the caller owns).
	lease *parseBuf
}

// Release returns the payload's backing parse buffer to its pool once
// every message parsed from it has been released. Payload must not be
// used afterwards. Release is a no-op on hand-built messages and on the
// zero Message; call it exactly once per parsed message.
func (m *Message) Release() {
	if l := m.lease; l != nil {
		m.lease = nil
		l.release()
	}
}

// parseBuf is a pooled, reference-counted parse buffer block: the parser
// holds one reference while it is filling the block, and every Message
// whose payload views the block holds another.
type parseBuf struct {
	data []byte
	refs atomic.Int32
}

var parseBufPool = sync.Pool{New: func() any { return new(parseBuf) }}

// newParseBuf returns a block with capacity for at least n bytes and the
// caller's reference already counted.
func newParseBuf(n int) *parseBuf {
	pb := parseBufPool.Get().(*parseBuf)
	pb.data = bufpool.Get(n)
	pb.refs.Store(1)
	return pb
}

func (pb *parseBuf) retain() { pb.refs.Add(1) }

// release drops one reference. The last one returns the block to
// bufpool before parking the empty struct, so a sync.Pool eviction (or
// a Put the race detector drops) loses only the struct, never a
// checked-out block.
func (pb *parseBuf) release() {
	if pb.refs.Add(-1) == 0 {
		bufpool.Put(pb.data)
		pb.data = nil
		parseBufPool.Put(pb)
	}
}

// AppendMessage appends m encoded in the frame version m.Ver selects
// and returns the extended slice. It is the one frame-header writer:
// v2–v4 share the length and magic bytes, v4 inserts its kind byte
// before flags and status, v3 and v4 carry the method, v4 the
// subscription ID, and v2/v3 append the deadline extension exactly when
// m.Budget is nonzero (FlagDeadline on m.Flags is ignored; the encoder
// derives it from the budget). The payload must not exceed MaxPayload —
// a longer one cannot be represented in the 24-bit length field and
// would corrupt the stream, so callers (transports, the reply path)
// reject it with ErrPayloadTooLarge before encoding; this function
// panics if they did not.
func AppendMessage(buf []byte, m Message) []byte {
	n := len(m.Payload)
	if n > MaxPayload {
		panic("proto: AppendMessage payload exceeds MaxPayload")
	}
	var hdr [HeaderSizeV4]byte // every header, deadline extension included, fits
	h := HeaderSize
	if m.Ver < 2 {
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
		binary.LittleEndian.PutUint64(hdr[4:12], m.ID)
	} else {
		hdr[0], hdr[1], hdr[2], hdr[3] = byte(n), byte(n>>8), byte(n>>16), magicBase+m.Ver
		f := 4 // offset of the flags byte
		if m.Ver == 4 {
			hdr[4] = m.Kind
			f = 5
		}
		hdr[f], hdr[f+1] = m.Flags&^FlagDeadline, m.Status
		h = f + 2
		if m.Ver >= 3 {
			binary.LittleEndian.PutUint16(hdr[h:h+2], m.Method)
			h += 2
		}
		if m.Ver == 4 {
			binary.LittleEndian.PutUint32(hdr[h:h+4], m.SubID)
			h += 4
		}
		binary.LittleEndian.PutUint64(hdr[h:h+8], m.ID)
		h += 8
		if m.Budget != 0 && m.Ver != 4 {
			hdr[f] |= FlagDeadline
			binary.LittleEndian.PutUint32(hdr[h:h+DeadlineExtSize], m.Budget)
			h += DeadlineExtSize
		}
	}
	buf = append(buf, hdr[:h]...)
	return append(buf, m.Payload...)
}

// AppendFrameV3 is AppendMessage with m.Ver set to 3.
func AppendFrameV3(buf []byte, m Message) []byte { m.Ver = 3; return AppendMessage(buf, m) }

// FrameSizeV3 returns the encoded size of an unbudgeted v3 frame
// carrying n payload bytes.
func FrameSizeV3(n int) int { return HeaderSizeV3 + n }

// FrameSizeMsg returns the exact encoded size of m under AppendMessage,
// including the deadline extension when m.Budget is set — transports
// size pooled encode buffers with it so a budget-stamped frame never
// reallocates out of its pool class mid-append.
func FrameSizeMsg(m Message) int {
	n := headerSize[m.Ver] + len(m.Payload)
	if m.Budget != 0 && (m.Ver == 2 || m.Ver == 3) {
		n += DeadlineExtSize
	}
	return n
}

// AppendHealthFrame appends a piggybacked health frame carrying depth to
// buf and returns the extended slice: a v3 frame on the reserved
// MethodHealth route with request ID 0, which no dispatcher ever
// allocates, so peers without a depth hook drop it for free.
func AppendHealthFrame(buf []byte, depth uint32) []byte {
	var p [HealthPayloadSize]byte
	binary.LittleEndian.PutUint32(p[:], depth)
	return AppendMessage(buf, Message{Ver: 3, Method: MethodHealth, Payload: p[:]})
}

// DecodeHealthPayload extracts the depth from a health frame's payload;
// ok is false if the payload is malformed.
func DecodeHealthPayload(p []byte) (depth uint32, ok bool) {
	if len(p) != HealthPayloadSize {
		return 0, false
	}
	return binary.LittleEndian.Uint32(p), true
}

// Parser incrementally decodes a frame stream carrying any mix of v1,
// v2, v3 and v4 frames. The zero value is ready to use.
//
// Payloads returned by Next are views into the parser's pooled buffer;
// see the package comment for the ownership rules. The parser never
// moves or reuses bytes that an unreleased Message can still observe:
// in-place compaction and reuse happen only while the parser holds the
// buffer's sole reference, otherwise it migrates to a fresh block and
// leaves the old one pinned by its messages.
type Parser struct {
	pb    *parseBuf
	start int // offset of the first unparsed byte in pb.data
	err   error
}

// Feed appends stream bytes to the parser. Call Next until it reports no
// more messages.
func (p *Parser) Feed(data []byte) {
	if p.err != nil || len(data) == 0 {
		return
	}
	if p.pb == nil {
		p.pb = newParseBuf(len(data))
	}
	pb := p.pb
	if len(pb.data)+len(data) > cap(pb.data) {
		unparsed := len(pb.data) - p.start
		if p.start > 0 && pb.refs.Load() == 1 {
			// Sole owner: compact the unparsed tail in place. This is the
			// steady-state path under pipelining — one memmove per buffer
			// wrap instead of one per consumed frame.
			copy(pb.data, pb.data[p.start:])
			pb.data = pb.data[:unparsed]
			p.start = 0
		}
		if len(pb.data)+len(data) > cap(pb.data) {
			// Still too small (or outstanding payload views forbid moving
			// bytes): migrate the unparsed tail to a larger block. Old
			// blocks stay alive exactly as long as their messages do.
			npb := newParseBuf(unparsed + len(data))
			npb.data = append(npb.data, pb.data[p.start:]...)
			p.pb = npb
			p.start = 0
			pb.release()
			pb = npb
		}
	}
	pb.data = append(pb.data, data...)
}

// Next returns the next complete message, if any. The returned payload
// is a view into the parser's pooled buffer and is valid until
// Message.Release; it returns an error if the stream is malformed.
//
// It is the one frame-header parser: the magic byte picks the version
// and the header length, then a single decode reads the fields, takes
// the payload view and consumes the frame for every version.
func (p *Parser) Next() (Message, bool, error) {
	if p.err != nil {
		return Message{}, false, p.err
	}
	if p.buffered() < HeaderSize {
		return Message{}, false, nil
	}
	buf := p.pb.data[p.start:]
	var m Message
	var hdr, n int
	switch buf[3] {
	case Magic2, Magic3, Magic4:
		m.Ver = buf[3] - magicBase
		hdr = headerSize[m.Ver]
		n = int(buf[0]) | int(buf[1])<<8 | int(buf[2])<<16
		f := 4 // offset of the flags byte
		if m.Ver == 4 {
			m.Kind = buf[4]
			if m.Kind < KindSubscribe || m.Kind > KindPush {
				p.err = fmt.Errorf("proto: invalid v4 frame kind %d", m.Kind)
				return Message{}, false, p.err
			}
			f = 5
		} else if buf[4]&FlagDeadline != 0 {
			// The flags byte lies within the guaranteed HeaderSize prefix,
			// so the extension's presence is decidable before the full
			// header has arrived.
			hdr += DeadlineExtSize
		}
		if len(buf) < hdr+n {
			return Message{}, false, nil
		}
		// FlagDeadline is framing metadata, not message state: Budget
		// carries the value, and the encoder re-derives the flag from it,
		// so a re-stamped forward never emits the flag without the bytes.
		m.Flags = buf[f] &^ FlagDeadline
		m.Status = buf[f+1]
		o := f + 2
		if m.Ver >= 3 {
			m.Method = binary.LittleEndian.Uint16(buf[o : o+2])
			o += 2
		}
		if m.Ver == 4 {
			m.SubID = binary.LittleEndian.Uint32(buf[o : o+4])
			o += 4
		}
		m.ID = binary.LittleEndian.Uint64(buf[o : o+8])
		if o += 8; hdr > o {
			m.Budget = binary.LittleEndian.Uint32(buf[o : o+DeadlineExtSize])
		}
	default:
		n = int(binary.LittleEndian.Uint32(buf[0:4]))
		if n > MaxPayload {
			p.err = fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
			return Message{}, false, p.err
		}
		hdr = HeaderSize
		if len(buf) < hdr+n {
			return Message{}, false, nil
		}
		m.ID = binary.LittleEndian.Uint64(buf[4:12])
	}
	if n != 0 {
		// A capacity-clamped view, so appends by the consumer can never
		// scribble over neighbouring frames. Empty payloads take no
		// buffer reference.
		m.Payload = buf[hdr : hdr+n : hdr+n]
		m.lease = p.pb
	}
	p.consume(hdr+n, n != 0)
	return m, true, nil
}

// consume advances past one decoded frame of total size n; leased
// records whether the yielded message took a payload view (and must be
// handed a reference with it).
func (p *Parser) consume(n int, leased bool) {
	if leased {
		p.pb.retain()
	}
	p.start += n
	if p.start == len(p.pb.data) {
		// Fully parsed. If no payload views are outstanding, rewind the
		// block in place; otherwise drop our reference and start fresh on
		// the next Feed — the block returns to the pool when its last
		// message releases it.
		if p.pb.refs.Load() == 1 {
			p.pb.data = p.pb.data[:0]
		} else {
			p.pb.release()
			p.pb = nil
		}
		p.start = 0
	}
}

// buffered is Buffered without the nil check indirection.
func (p *Parser) buffered() int {
	if p.pb == nil {
		return 0
	}
	return len(p.pb.data) - p.start
}

// Buffered reports how many undecoded bytes the parser is holding.
func (p *Parser) Buffered() int { return p.buffered() }

// ReleaseBuffer discards buffered bytes and drops the parser's hold on
// its pooled block (outstanding payload views keep it alive), while
// preserving any sticky parse error. A poisoned connection uses it to
// give its memory back without reopening the stream: keeping the error
// sticky means bytes queued behind a malformed frame are never
// re-parsed from an arbitrary mid-stream offset.
func (p *Parser) ReleaseBuffer() {
	if p.pb != nil {
		p.pb.release()
		p.pb = nil
	}
	p.start = 0
}

// Reset discards buffered bytes and any sticky error, returning the
// parse buffer to its pool if no payload views are outstanding.
func (p *Parser) Reset() {
	p.ReleaseBuffer()
	p.err = nil
}

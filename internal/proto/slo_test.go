package proto

import (
	"math"
	"testing"
	"time"
)

func TestBudgetMicrosClamps(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want uint32
	}{
		{0, 0},
		{-time.Second, 0},
		{500 * time.Nanosecond, 1}, // sub-µs positive means "now", not "none"
		{3 * time.Microsecond, 3},
		{time.Second, 1e6},
		{200 * time.Hour, math.MaxUint32},
	}
	for _, c := range cases {
		if got := BudgetMicros(c.d); got != c.want {
			t.Errorf("BudgetMicros(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	if got := BudgetDuration(250); got != 250*time.Microsecond {
		t.Errorf("BudgetDuration(250) = %v", got)
	}
	if got := BudgetDuration(0); got != 0 {
		t.Errorf("BudgetDuration(0) = %v", got)
	}
}

// A budget rides the deadline extension on both extended frame
// versions: the encoder sets FlagDeadline and emits the trailing bytes,
// the parser recovers the budget and strips the flag (framing metadata,
// not message state), and the length field keeps counting payload bytes
// only.
func TestBudgetRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    Message
	}{
		{"v2", Message{ID: 9, Payload: []byte("b2"), Ver: 2, Budget: 1500}},
		{"v3", Message{ID: 10, Method: 7, Payload: []byte("b3"), Ver: 3, Budget: 42}},
		{"v3-flags", Message{ID: 11, Method: 8, Ver: 3, Budget: 1, Flags: FlagOneWay}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := AppendMessage(nil, tc.m)
			if len(frame) != FrameSizeMsg(tc.m) {
				t.Fatalf("encoded %d bytes, FrameSizeMsg says %d", len(frame), FrameSizeMsg(tc.m))
			}
			// The length field must exclude the extension, or a
			// FlagDeadline-blind length check would misframe the stream.
			if n := int(frame[0]) | int(frame[1])<<8 | int(frame[2])<<16; n != len(tc.m.Payload) {
				t.Fatalf("length field %d, want payload-only %d", n, len(tc.m.Payload))
			}
			if frame[4]&FlagDeadline == 0 {
				t.Fatal("budgeted frame missing FlagDeadline")
			}
			// Byte-at-a-time feed: the extension must not confuse
			// incremental framing.
			var p Parser
			for _, b := range frame {
				if _, ok, _ := p.Next(); ok {
					t.Fatal("message completed early")
				}
				p.Feed([]byte{b})
			}
			m, ok, err := p.Next()
			if err != nil || !ok {
				t.Fatalf("Next: %v %v", ok, err)
			}
			if m.Budget != tc.m.Budget {
				t.Fatalf("budget %d, want %d", m.Budget, tc.m.Budget)
			}
			if m.Flags&FlagDeadline != 0 {
				t.Fatal("parser leaked FlagDeadline into Flags")
			}
			if m.Flags != tc.m.Flags || m.ID != tc.m.ID || m.Method != tc.m.Method ||
				string(m.Payload) != string(tc.m.Payload) {
				t.Fatalf("got %+v, want %+v", m, tc.m)
			}
		})
	}
}

// An unbudgeted message must encode without the flag or the extension —
// zero means "no deadline", never "deadline of zero".
func TestNoBudgetNoExtension(t *testing.T) {
	m := Message{ID: 1, Method: 2, Payload: []byte("x"), Ver: 3}
	frame := AppendMessage(nil, m)
	if len(frame) != FrameSizeV3(1) {
		t.Fatalf("unbudgeted frame %d bytes, want %d", len(frame), FrameSizeV3(1))
	}
	if frame[4]&FlagDeadline != 0 {
		t.Fatal("unbudgeted frame carries FlagDeadline")
	}
}

func TestRetryAfterRoundTrip(t *testing.T) {
	msg := FormatRetryAfter(750*time.Microsecond, "queue depth exceeded")
	d, rest, ok := ParseRetryAfter(msg)
	if !ok || d != 750*time.Microsecond || rest != "queue depth exceeded" {
		t.Fatalf("ParseRetryAfter(%q) = %v %q %v", msg, d, rest, ok)
	}
	// Negative hints clamp to zero on format.
	d, _, ok = ParseRetryAfter(FormatRetryAfter(-time.Second, "x"))
	if !ok || d != 0 {
		t.Fatalf("negative hint: %v %v", d, ok)
	}
	// Messages without the prefix (or with a garbled number) carry no
	// hint and come back verbatim.
	for _, s := range []string{"plain shed message", "retry-after-us=nope; x", ""} {
		if d, rest, ok := ParseRetryAfter(s); ok || rest != s || d != 0 {
			t.Fatalf("ParseRetryAfter(%q) = %v %q %v, want no hint", s, d, rest, ok)
		}
	}
}

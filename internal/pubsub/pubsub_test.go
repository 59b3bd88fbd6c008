package pubsub

import (
	"errors"
	"sync"
	"testing"
)

func TestFilterMatch(t *testing.T) {
	cases := []struct {
		name string
		f    Filter
		id   uint32
		want bool
	}{
		{"all", Filter{}, 12345, true},
		{"exact-hit", Exact(7), 7, true},
		{"exact-miss", Exact(7), 8, false},
		{"mask-hit", Mask(0x100, 0xF00), 0x1AB, true},
		{"mask-miss", Mask(0x100, 0xF00), 0x2AB, false},
		{"range-lo", Range(10, 20), 10, true},
		{"range-hi", Range(10, 20), 20, true},
		{"range-miss", Range(10, 20), 21, false},
		{"func-hit", Func(func(fr Frame) bool { return fr.ID%2 == 0 }), 4, true},
		{"func-miss", Func(func(fr Frame) bool { return fr.ID%2 == 0 }), 5, false},
		{"func-nil", Filter{Kind: FilterFunc}, 5, false},
		{"unknown-kind", Filter{Kind: 99}, 5, false},
	}
	for _, tc := range cases {
		if got := tc.f.Match(Frame{ID: tc.id}); got != tc.want {
			t.Errorf("%s: Match(ID=%d) = %v, want %v", tc.name, tc.id, got, tc.want)
		}
	}
}

func TestBusFanout(t *testing.T) {
	b := NewBus()
	var all, odd, ranged []uint32
	sAll := b.Subscribe(1, Filter{}, func(fr Frame) { all = append(all, fr.ID) })
	b.Subscribe(1, Func(func(fr Frame) bool { return fr.ID%2 == 1 }), func(fr Frame) { odd = append(odd, fr.ID) })
	b.Subscribe(1, Range(2, 3), func(fr Frame) { ranged = append(ranged, fr.ID) })
	b.Subscribe(2, Filter{}, func(fr Frame) { t.Errorf("topic 2 subscriber got frame %d", fr.ID) })

	for id := uint32(0); id < 5; id++ {
		b.Publish(Frame{Topic: 1, ID: id})
	}
	if want := []uint32{0, 1, 2, 3, 4}; !equalU32(all, want) {
		t.Errorf("all = %v, want %v", all, want)
	}
	if want := []uint32{1, 3}; !equalU32(odd, want) {
		t.Errorf("odd = %v, want %v", odd, want)
	}
	if want := []uint32{2, 3}; !equalU32(ranged, want) {
		t.Errorf("ranged = %v, want %v", ranged, want)
	}
	if n := b.Publish(Frame{Topic: 3, ID: 1}); n != 0 {
		t.Errorf("publish to empty topic delivered %d", n)
	}

	st := b.Stats()
	if st.Published != 6 || st.Subscriptions != 4 {
		t.Errorf("stats = %+v, want Published=6 Subscriptions=4", st)
	}
	// all(5) + odd(2) + ranged(2) = 9 deliveries.
	if st.Delivered != 9 {
		t.Errorf("Delivered = %d, want 9", st.Delivered)
	}

	sAll.Unsubscribe()
	sAll.Unsubscribe() // idempotent
	if got := b.Subscribers(1); got != 2 {
		t.Errorf("Subscribers(1) after unsubscribe = %d, want 2", got)
	}
	before := len(all)
	b.Publish(Frame{Topic: 1, ID: 9})
	if len(all) != before {
		t.Error("unsubscribed subscription still received a frame")
	}
}

func TestBusConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := b.Subscribe(1, Exact(1), func(Frame) {})
			s.Unsubscribe()
		}
	}()
	for i := 0; i < 10000; i++ {
		b.Publish(Frame{Topic: 1, ID: 1})
	}
	close(stop)
	wg.Wait()
	if got := b.Subscribers(1); got != 0 {
		t.Errorf("Subscribers(1) = %d after churn, want 0", got)
	}
}

func TestFilterWireRoundTrip(t *testing.T) {
	filters := []Filter{
		{Kind: FilterAll},
		Exact(0xDEADBEEF),
		Mask(0x100, 0xF00),
		Range(7, 0xFFFFFFFF),
	}
	for _, f := range filters {
		buf, err := AppendFilter(nil, f)
		if err != nil {
			t.Fatalf("AppendFilter(%+v): %v", f, err)
		}
		got, n, err := DecodeFilter(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("DecodeFilter(%+v): got n=%d err=%v, want n=%d", f, n, err, len(buf))
		}
		if got.Kind != f.Kind || got.ID != f.ID || got.Mask != f.Mask || got.Lo != f.Lo || got.Hi != f.Hi {
			t.Errorf("round trip %+v -> %+v", f, got)
		}
	}
	if _, err := AppendFilter(nil, Func(func(Frame) bool { return true })); !errors.Is(err, ErrFuncFilter) {
		t.Errorf("AppendFilter(func) err = %v, want ErrFuncFilter", err)
	}
	if _, err := AppendFilter(nil, Filter{Kind: 42}); !errors.Is(err, ErrBadFilter) {
		t.Errorf("AppendFilter(kind 42) err = %v, want ErrBadFilter", err)
	}
	for _, b := range [][]byte{nil, {FilterExact}, {FilterMask, 1, 2, 3}, {FilterRange, 1, 2, 3, 4, 5, 6, 7}, {77}} {
		if _, _, err := DecodeFilter(b); err == nil {
			t.Errorf("DecodeFilter(%v) succeeded on malformed input", b)
		}
	}
}

func TestSubSpecRoundTrip(t *testing.T) {
	s := SubSpec{Policy: PolicyDisconnect, QCap: 512, Filter: Mask(0xA0, 0xF0)}
	buf, err := AppendSubSpec(nil, s)
	if err != nil {
		t.Fatalf("AppendSubSpec: %v", err)
	}
	got, err := DecodeSubSpec(buf)
	if err != nil {
		t.Fatalf("DecodeSubSpec: %v", err)
	}
	f := got.Filter
	if got.Policy != s.Policy || got.QCap != s.QCap ||
		f.Kind != FilterMask || f.ID != 0xA0 || f.Mask != 0xF0 || f.Lo != 0 || f.Hi != 0 {
		t.Errorf("round trip %+v -> %+v", s, got)
	}
	// Malformed specs: short, bad policy, trailing bytes.
	for _, b := range [][]byte{nil, {0, 0}, {9, 0, 0, FilterAll}, append(buf, 0)} {
		if _, err := DecodeSubSpec(b); err == nil {
			t.Errorf("DecodeSubSpec(%v) succeeded on malformed input", b)
		}
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

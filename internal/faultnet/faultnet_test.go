package faultnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"zygos/internal/proto"
)

// stubCaller is a minimal in-process transport: every request gets an
// immediate "ok" reply on the calling goroutine.
type stubCaller struct {
	mu    sync.Mutex
	sends int
}

func (s *stubCaller) reply(cb func([]byte, error)) error {
	s.mu.Lock()
	s.sends++
	s.mu.Unlock()
	cb([]byte("ok"), nil)
	return nil
}

func (s *stubCaller) Do(c proto.Call) error {
	if c.OneWay {
		s.mu.Lock()
		s.sends++
		s.mu.Unlock()
		return nil
	}
	return s.reply(c.Done)
}

func (s *stubCaller) count() int { s.mu.Lock(); defer s.mu.Unlock(); return s.sends }

func TestScriptPinsActions(t *testing.T) {
	inner := &stubCaller{}
	script := []Action{Pass, Blackhole, Reset, DropReply, Delay}
	fc := WrapCaller(inner, Plan{
		Seed:   1,
		Script: func(op uint64) (Action, bool) { return script[op%uint64(len(script))], true },
	})

	var mu sync.Mutex
	got := make(map[int][]byte)
	errs := make(map[int]error)
	fired := 0
	for i := 0; i < len(script); i++ {
		i := i
		err := fc.SendAsync([]byte("req"), func(resp []byte, err error) {
			mu.Lock()
			got[i] = append([]byte(nil), resp...)
			errs[i] = err
			fired++
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("op %d sync err: %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := fired
		mu.Unlock()
		if n >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if fired != 3 {
		t.Fatalf("fired = %d callbacks, want 3 (pass, reset, delay)", fired)
	}
	if string(got[0]) != "ok" || errs[0] != nil {
		t.Fatalf("pass op: %q, %v", got[0], errs[0])
	}
	if _, ok := got[1]; ok {
		t.Fatal("blackholed op fired its callback")
	}
	if !errors.Is(errs[2], ErrInjectedReset) {
		t.Fatalf("reset op err = %v", errs[2])
	}
	if _, ok := got[3]; ok {
		t.Fatal("drop-reply op fired its callback")
	}
	if string(got[4]) != "ok" || errs[4] != nil {
		t.Fatalf("delayed op: %q, %v", got[4], errs[4])
	}
	// Blackhole never reaches the inner transport; everything else does.
	if c := inner.count(); c != 4 {
		t.Fatalf("inner sends = %d, want 4", c)
	}
	st := fc.FaultStats()
	if st.Blackholes != 1 || st.Resets != 1 || st.DropReplies != 1 || st.Delays != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSeededPlanIsDeterministic(t *testing.T) {
	mix := func(seed int64) Stats {
		fc := WrapCaller(&stubCaller{}, Plan{
			Seed: seed, PReset: 0.1, PBlackhole: 0.1, PDropReply: 0.1, PDelay: 0.2,
		})
		for i := 0; i < 400; i++ {
			fc.SendAsync([]byte("x"), func([]byte, error) {})
		}
		s := fc.FaultStats()
		s.Delays = 0 // delayed callbacks may still be in flight; counts already noted at decide time
		return s
	}
	a, b := mix(42), mix(42)
	a.Delays, b.Delays = 0, 0
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := mix(43)
	if a == c {
		t.Fatalf("different seeds produced identical fault mix: %+v", a)
	}
}

func TestDelayedReplyIsCopied(t *testing.T) {
	// The inner transport recycles its parse buffer as soon as the
	// callback returns; a delayed reply must not observe the recycled
	// bytes.
	buf := []byte("live")
	inner := &funcCaller{send: func(p []byte, cb func([]byte, error)) error {
		cb(buf, nil)
		copy(buf, "DEAD") // simulate recycling
		return nil
	}}
	fc := WrapCaller(inner, Plan{Seed: 1, Script: func(uint64) (Action, bool) { return Delay, true }})
	ch := make(chan string, 1)
	if err := fc.SendAsync([]byte("x"), func(resp []byte, err error) { ch <- string(resp) }); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-ch:
		if got != "live" {
			t.Fatalf("delayed reply = %q, want %q (buffer recycled under the delay)", got, "live")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delayed reply never arrived")
	}
}

// funcCaller adapts one send function to the Do primitive.
type funcCaller struct {
	send func(p []byte, cb func([]byte, error)) error
}

func (f *funcCaller) Do(c proto.Call) error {
	if c.OneWay {
		return nil
	}
	return f.send(c.Payload, c.Done)
}

// A blackholed peer cannot hold a deadline-bounded call hostage: the
// blocking forms time Call.Budget at the waiter.
func TestBlackholeCallTimeout(t *testing.T) {
	inner := &stubCaller{}
	fc := WrapCaller(inner, Plan{Seed: 1, PBlackhole: 1})
	start := time.Now()
	_, err := fc.CallMethodTimeout(1, []byte("x"), 20*time.Millisecond)
	if !errors.Is(err, proto.ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Fatalf("blackholed call returned after %v, want within 200ms", el)
	}
	if c := inner.count(); c != 0 {
		t.Fatalf("inner sends = %d, want 0 (blackholed)", c)
	}
}

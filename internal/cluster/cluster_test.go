package cluster

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zygos/internal/kvwire"
	"zygos/internal/proto"
)

// fakeCaller is a scriptable transport: sends are refused synchronously
// (err), answered inline (autoReply), or parked until fail/reply
// delivers a verdict. hook runs inside every async send, before the
// verdict, to force cross-attempt interleavings a real transport only
// hits under races.
type fakeCaller struct {
	name      string
	err       error  // non-nil: refuse every send synchronously
	autoReply []byte // non-nil: answer every async send inline
	hook      func()

	mu  sync.Mutex
	cbs []func([]byte, error)
}

func (f *fakeCaller) send(cb func([]byte, error)) error {
	if f.hook != nil {
		f.hook()
	}
	if f.err != nil {
		return f.err
	}
	if f.autoReply != nil {
		cb(f.autoReply, nil)
		return nil
	}
	f.mu.Lock()
	f.cbs = append(f.cbs, cb)
	f.mu.Unlock()
	return nil
}

// fail delivers err to every parked send, as a transport would on
// connection teardown.
func (f *fakeCaller) fail(err error) {
	f.mu.Lock()
	cbs := f.cbs
	f.cbs = nil
	f.mu.Unlock()
	for _, cb := range cbs {
		cb(nil, err)
	}
}

func (f *fakeCaller) Do(c proto.Call) error {
	if c.OneWay {
		return f.err
	}
	return f.send(c.Done)
}
func (f *fakeCaller) Close() {}

// A hedge refused synchronously after the primary's transport failure
// must still settle the op: the primary's finish saw the hedge counted
// outstanding and deferred to it, so if the refusal merely decremented
// the count the callback would never fire and a blocking Call would
// hang forever.
func TestHedgeDispatchFailureSettles(t *testing.T) {
	transportErr := errors.New("conn reset")
	dialErr := errors.New("dial backoff")

	holder := &fakeCaller{name: "holder"} // parks the primary attempt
	refuser := &fakeCaller{name: "refuser", err: dialErr}
	// Deliver the primary's failure inside the hedge's send, after the
	// hedge is counted outstanding but before its synchronous refusal:
	// the exact interleaving that stranded the op.
	refuser.hook = func() { holder.fail(transportErr) }

	cl := New(Config{
		Policy: JSQ, // ties break to the first backend: primary is deterministic
		Hedge:  HedgeConfig{Enabled: true, MaxDelay: time.Millisecond},
	})
	cl.Add("holder", holder)
	cl.Add("refuser", refuser)
	defer cl.Close()

	var fires atomic.Int32
	done := make(chan error, 2)
	if err := cl.SendMethodAsync(1, []byte("x"), func(resp []byte, err error) {
		fires.Add(1)
		done <- err
	}); err != nil {
		t.Fatalf("SendMethodAsync: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("op settled with a nil error; both attempts failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("op hung: callback never fired after the hedge dispatch was refused")
	}
	time.Sleep(10 * time.Millisecond)
	if n := fires.Load(); n != 1 {
		t.Fatalf("callback fired %d times, want exactly 1", n)
	}
}

// A secondary replica write lost to a transport error must be counted:
// the primary's reply hides the loss from the caller while reads route
// to any owner, so the counter is the only signal of the stale replica.
func TestReplicaWriteFailureCounted(t *testing.T) {
	cl := New(Config{
		Policy:   JSQ,
		Replicas: 2,
		KeyFunc: func(method uint16, payload []byte) ([]byte, bool, bool) {
			return payload, true, true
		},
	})
	a := &fakeCaller{name: "a", autoReply: []byte("ok")}
	b := &fakeCaller{name: "b", autoReply: []byte("ok")}
	cl.Add("a", a)
	cl.Add("b", b)
	defer cl.Close()

	// Ring order decides which backend is the key's primary; break the
	// secondary so the write fan-out loses it while the primary reply
	// still succeeds.
	owners := cl.view.Load().(*membership).ring.owners([]byte("key"), 2, cl.Backends())
	if len(owners) != 2 {
		t.Fatalf("got %d owners, want 2", len(owners))
	}
	owners[1].c.(*fakeCaller).err = errors.New("secondary down")

	resp, err := cl.CallMethod(5, []byte("key"))
	if err != nil || string(resp) != "ok" {
		t.Fatalf("primary write failed: resp=%q err=%v", resp, err)
	}
	if got := cl.Stats().ReplicaWriteFailures; got != 1 {
		t.Fatalf("ReplicaWriteFailures = %d, want 1", got)
	}
	if inf := owners[1].inflight.Load(); inf != 0 {
		t.Fatalf("failed secondary left inflight = %d, want 0", inf)
	}
}

// Legacy (method-less) traffic must not share a latency window with
// routed method-0 traffic: the two routes can have unrelated latency
// profiles, and conflating them skews both adaptive hedge deadlines.
func TestTrackerKeySeparatesLegacy(t *testing.T) {
	cl := New(Config{})
	if cl.trackerFor(0, true) == cl.trackerFor(0, false) {
		t.Fatal("legacy and method-0 routed traffic share a tracker")
	}
	if cl.trackerFor(3, false) != cl.trackerFor(3, false) {
		t.Fatal("trackerFor is not stable for a fixed route")
	}
}

func mkBackends(names ...string) []*Backend {
	bs := make([]*Backend, len(names))
	for i, n := range names {
		bs[i] = &Backend{name: n}
	}
	return bs
}

// The ring is a pure function of backend names: two rings built from
// the same membership route every key identically, owners are distinct,
// and the owner count clamps to the membership size.
func TestRingDeterministicOwners(t *testing.T) {
	names := []string{"10.0.0.1:9000", "10.0.0.2:9000", "10.0.0.3:9000", "10.0.0.4:9000"}
	a := buildRing(mkBackends(names...))
	bsB := mkBackends(names...)
	b := buildRing(bsB)
	bsA := mkBackends(names...)

	keys := []string{"user:17", "user:42", "session:abc", "k", ""}
	for _, key := range keys {
		oa := a.owners([]byte(key), 2, bsA)
		ob := b.owners([]byte(key), 2, bsB)
		if len(oa) != 2 || len(ob) != 2 {
			t.Fatalf("key %q: owner counts %d/%d, want 2", key, len(oa), len(ob))
		}
		for i := range oa {
			if oa[i].name != ob[i].name {
				t.Fatalf("key %q: ring not deterministic (%s vs %s at %d)", key, oa[i].name, ob[i].name, i)
			}
		}
		if oa[0] == oa[1] {
			t.Fatalf("key %q: duplicate owner %s", key, oa[0].name)
		}
	}

	if got := a.owners([]byte("x"), 10, bsA); len(got) != len(names) {
		t.Fatalf("replicas beyond membership returned %d owners, want %d", len(got), len(names))
	}
}

// Vnode placement must spread keys: no backend owns a wildly outsized
// share of primaries.
func TestRingBalance(t *testing.T) {
	bs := mkBackends("a", "b", "c", "d")
	r := buildRing(bs)
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		var k [8]byte
		binary.LittleEndian.PutUint64(k[:], uint64(i)*0x9E3779B97F4A7C15)
		counts[r.owners(k[:], 1, bs)[0].name]++
	}
	for n, c := range counts {
		if c < keys/8 || c > keys/2 {
			t.Fatalf("backend %s owns %d/%d primaries; vnode spread is broken (%v)", n, c, keys, counts)
		}
	}
}

// Least must score by inflight plus fresh reported depth, and stale
// depth reports must stop counting after the TTL.
func TestBalancerScoring(t *testing.T) {
	bs := mkBackends("a", "b")
	bl := NewBalancer(JSQ, 10*time.Millisecond)

	bs[0].inflight.Store(5)
	if got := bl.choose(bs, nil, true, nil); got != bs[1] {
		t.Fatalf("Least picked %s, want b (a has 5 inflight)", got.name)
	}

	// A fresh depth report outweighs a small inflight edge.
	bs[0].inflight.Store(0)
	bs[1].inflight.Store(1)
	bs[0].NoteDepth(50)
	if got := bl.choose(bs, nil, true, nil); got != bs[1] {
		t.Fatalf("Least ignored fresh depth report on a")
	}

	// Stale reports decay: backdate the report past the TTL.
	bs[0].depthAt.Store(time.Now().Add(-time.Second).UnixNano())
	if got := bl.choose(bs, nil, true, nil); got != bs[0] {
		t.Fatalf("Least still counts a depth report older than the TTL")
	}

	// Exclusion skips already-tried backends.
	if got := bl.choose(bs, []*Backend{bs[0]}, true, nil); got != bs[1] {
		t.Fatalf("Least returned an excluded backend")
	}
	if got := bl.choose(bs, bs, true, nil); got != nil {
		t.Fatalf("Least with everything excluded returned %v", got)
	}
}

// P2C and RoundRobin must respect exclusion and never return nil while
// an eligible backend remains.
func TestBalancerPickExclusion(t *testing.T) {
	bs := mkBackends("a", "b", "c")
	for _, pol := range []Policy{RoundRobin, P2C, JSQ} {
		bl := NewBalancer(pol, 0)
		seen := map[string]bool{}
		for i := 0; i < 200; i++ {
			b := bl.choose(bs, []*Backend{bs[0]}, false, nil)
			if b == nil {
				t.Fatalf("%v: Pick returned nil with eligible backends", pol)
			}
			if b == bs[0] {
				t.Fatalf("%v: Pick returned the excluded backend", pol)
			}
			seen[b.name] = true
		}
		// Load-aware policies break score ties deterministically, so
		// only round-robin owes coverage of every eligible backend.
		if pol == RoundRobin && len(seen) != 2 {
			t.Fatalf("%v: picks covered %v, want both eligible backends", pol, seen)
		}
	}
}

// RoundRobin must rotate evenly with no exclusions.
func TestBalancerRoundRobinRotation(t *testing.T) {
	bs := mkBackends("a", "b", "c")
	bl := NewBalancer(RoundRobin, 0)
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		counts[bl.choose(bs, nil, false, nil).name]++
	}
	for n, c := range counts {
		if c != 100 {
			t.Fatalf("round robin gave %s %d/300 picks (%v)", n, c, counts)
		}
	}
}

// The tracker's deadline is MaxDelay cold, adapts to the observed P99
// once the window fills, and clamps to the configured bounds.
func TestTrackerAdaptiveDeadline(t *testing.T) {
	cfg := HedgeConfig{MinDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
	tr := &tracker{}

	if got := tr.delay(cfg); got != cfg.MaxDelay {
		t.Fatalf("cold deadline %v, want MaxDelay %v", got, cfg.MaxDelay)
	}

	// Uniform 10ms latencies: deadline converges near 10ms.
	for i := 0; i < hedgeWindow; i++ {
		tr.record(10*time.Millisecond, cfg)
	}
	if got := tr.delay(cfg); got != 10*time.Millisecond {
		t.Fatalf("deadline %v after uniform 10ms window, want 10ms", got)
	}

	// Microsecond latencies: clamped up to MinDelay. Two full windows,
	// so a periodic recompute definitely runs after the last slow
	// sample has aged out of the ring.
	for i := 0; i < 2*hedgeWindow; i++ {
		tr.record(5*time.Microsecond, cfg)
	}
	if got := tr.delay(cfg); got != cfg.MinDelay {
		t.Fatalf("deadline %v after fast window, want MinDelay %v", got, cfg.MinDelay)
	}

	// Second-long latencies: clamped down to MaxDelay.
	for i := 0; i < 2*hedgeWindow; i++ {
		tr.record(time.Second, cfg)
	}
	if got := tr.delay(cfg); got != cfg.MaxDelay {
		t.Fatalf("deadline %v after slow window, want MaxDelay %v", got, cfg.MaxDelay)
	}
}

// The kv routing contract must plug into the cluster as a KeyFunc and
// mirror the kv application's wire layout: bare keys for GET/DELETE,
// [klen:2][key][value] for SET, and reject short payloads.
func TestKVKeyFunc(t *testing.T) {
	var KVKeyFunc KeyFunc = kvwire.KeyFunc
	const (
		kvMethodGet    = kvwire.MethodGet
		kvMethodSet    = kvwire.MethodSet
		kvMethodDelete = kvwire.MethodDelete
	)
	if k, w, ok := KVKeyFunc(kvMethodGet, []byte("mykey")); !ok || w || string(k) != "mykey" {
		t.Fatalf("GET: key=%q write=%v ok=%v", k, w, ok)
	}
	if k, w, ok := KVKeyFunc(kvMethodDelete, []byte("mykey")); !ok || !w || string(k) != "mykey" {
		t.Fatalf("DELETE: key=%q write=%v ok=%v", k, w, ok)
	}
	set := binary.LittleEndian.AppendUint16(nil, 3)
	set = append(set, []byte("keyvalue")...)
	if k, w, ok := KVKeyFunc(kvMethodSet, set); !ok || !w || string(k) != "key" {
		t.Fatalf("SET: key=%q write=%v ok=%v", k, w, ok)
	}
	if _, _, ok := KVKeyFunc(kvMethodSet, []byte{9}); ok {
		t.Fatal("short SET payload reported ok")
	}
	if _, _, ok := KVKeyFunc(kvMethodSet, binary.LittleEndian.AppendUint16(nil, 40)); ok {
		t.Fatal("truncated SET payload reported ok")
	}
	if _, _, ok := KVKeyFunc(999, []byte("x")); ok {
		t.Fatal("unknown method reported keyed")
	}
}

// ParsePolicy round-trips the flag spellings.
func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{RoundRobin, P2C, JSQ} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus")
	}
}

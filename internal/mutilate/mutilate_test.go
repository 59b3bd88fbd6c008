package mutilate

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"zygos/internal/kv"
)

// fakeTarget answers every request immediately on the caller's goroutine.
type fakeTarget struct {
	calls atomic.Int64
	fail  bool
}

func (f *fakeTarget) SendMethodAsync(method uint16, payload []byte, cb func([]byte, error)) error {
	f.calls.Add(1)
	if f.fail {
		cb(nil, errors.New("boom"))
		return nil
	}
	cb([]byte{kv.ReplyHit}, nil)
	return nil
}

func TestRunCompletesAllRequests(t *testing.T) {
	tgt := &fakeTarget{}
	rep := Run(Config{
		Targets:    []Target{tgt},
		RatePerSec: 1e6,
		Requests:   500,
		Warmup:     100,
		Gen:        func(rng *rand.Rand) (uint16, []byte) { return 0, []byte{1} },
		Seed:       1,
	})
	if rep.Sent != 500 {
		t.Fatalf("sent %d", rep.Sent)
	}
	if rep.Completed != 400 {
		t.Fatalf("completed %d, want 400 measured", rep.Completed)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors %d", rep.Errors)
	}
	if rep.Latencies.Len() != 400 {
		t.Fatalf("latencies %d", rep.Latencies.Len())
	}
	if rep.AchievedRPS <= 0 {
		t.Fatal("achieved rate missing")
	}
}

func TestRunCountsErrors(t *testing.T) {
	tgt := &fakeTarget{fail: true}
	rep := Run(Config{
		Targets:    []Target{tgt},
		RatePerSec: 1e6,
		Requests:   100,
		Gen:        func(rng *rand.Rand) (uint16, []byte) { return 0, []byte{1} },
		Seed:       1,
	})
	if rep.Errors != 100 || rep.Completed != 0 {
		t.Fatalf("errors=%d completed=%d", rep.Errors, rep.Completed)
	}
}

func TestRunCheckRejects(t *testing.T) {
	tgt := &fakeTarget{}
	rep := Run(Config{
		Targets:    []Target{tgt},
		RatePerSec: 1e6,
		Requests:   50,
		Gen:        func(rng *rand.Rand) (uint16, []byte) { return 0, []byte{1} },
		Check:      func(resp []byte) bool { return false },
		Seed:       1,
	})
	if rep.Errors != 50 {
		t.Fatalf("errors=%d", rep.Errors)
	}
}

func TestRunSpreadsOverTargets(t *testing.T) {
	a, b := &fakeTarget{}, &fakeTarget{}
	Run(Config{
		Targets:    []Target{a, b},
		RatePerSec: 1e6,
		Requests:   1000,
		Gen:        func(rng *rand.Rand) (uint16, []byte) { return 0, []byte{1} },
		Seed:       3,
	})
	ca, cb := a.calls.Load(), b.calls.Load()
	if ca == 0 || cb == 0 {
		t.Fatalf("load not spread: %d/%d", ca, cb)
	}
	if ca+cb != 1000 {
		t.Fatalf("total %d", ca+cb)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing config must panic")
		}
	}()
	Run(Config{})
}

// decodeRouted splits one method-routed model request into key and
// value (value nil for GETs).
func decodeRouted(t *testing.T, method uint16, p []byte) (key, value []byte) {
	t.Helper()
	switch method {
	case kv.MethodGet:
		return p, nil
	case kv.MethodSet:
		k, v, err := kv.DecodeSetPayload(p)
		if err != nil {
			t.Fatal(err)
		}
		return k, v
	}
	t.Fatalf("unexpected method %d", method)
	return nil, nil
}

func TestETCModelShape(t *testing.T) {
	m := ETC(1000)
	rng := rand.New(rand.NewSource(1))
	gets, sets := 0, 0
	gen := m.Gen()
	for i := 0; i < 20000; i++ {
		method, p := gen(rng)
		key, value := decodeRouted(t, method, p)
		if len(key) < 12 || len(key) > 250 {
			t.Fatalf("key length %d out of range", len(key))
		}
		switch method {
		case kv.MethodGet:
			gets++
		case kv.MethodSet:
			sets++
			if len(value) < 1 || len(value) > 8192 {
				t.Fatalf("value length %d out of range", len(value))
			}
		}
	}
	frac := float64(gets) / float64(gets+sets)
	if frac < 0.95 || frac > 0.99 {
		t.Fatalf("ETC GET fraction %.3f, want ~0.968", frac)
	}
}

func TestUSRModelShape(t *testing.T) {
	m := USR(1000)
	rng := rand.New(rand.NewSource(2))
	gen := m.Gen()
	gets := 0
	const n = 20000
	for i := 0; i < n; i++ {
		method, p := gen(rng)
		key, value := decodeRouted(t, method, p)
		if len(key) < 19 || len(key) > 21 {
			t.Fatalf("USR key length %d", len(key))
		}
		if method == kv.MethodGet {
			gets++
		} else if len(value) != 2 {
			t.Fatalf("USR value length %d", len(value))
		}
	}
	frac := float64(gets) / n
	if frac < 0.99 {
		t.Fatalf("USR GET fraction %.4f, want ~0.998", frac)
	}
}

// The legacy generator still emits the opcode-in-payload encoding on
// method 0, for driving pre-routing servers.
func TestLegacyGenShape(t *testing.T) {
	m := USR(100)
	rng := rand.New(rand.NewSource(5))
	gen := m.LegacyGen()
	for i := 0; i < 200; i++ {
		method, p := gen(rng)
		if method != 0 {
			t.Fatalf("legacy gen produced method %d", method)
		}
		if _, _, _, err := kv.DecodeRequest(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPreloadCoversKeyspace(t *testing.T) {
	m := USR(100)
	rng := rand.New(rand.NewSource(3))
	payloads := m.Preload(rng)
	if len(payloads) != 100 {
		t.Fatalf("preload %d payloads", len(payloads))
	}
	seen := map[string]bool{}
	for _, p := range payloads {
		key, _, err := kv.DecodeSetPayload(p)
		if err != nil {
			t.Fatal("preload must be routed SET payloads")
		}
		seen[string(key[:12])] = true
	}
	if len(seen) != 100 {
		t.Fatalf("preload covered %d distinct keys", len(seen))
	}
}

func TestKeyDeterministicPerIndex(t *testing.T) {
	m := USR(10)
	if a, b := m.keyN(7), m.keyN(7); string(a) != string(b) {
		t.Fatalf("key must be deterministic in the index: %q vs %q", a, b)
	}
	// The lengths still follow the model's distribution across indexes.
	lens := map[int]bool{}
	for i := 0; i < 200; i++ {
		lens[len(USR(200).keyN(i))] = true
	}
	if len(lens) != 3 {
		t.Fatalf("USR key lengths seen: %v, want 19, 20 and 21", lens)
	}
}

// TestGenHitsPreloadedKeys pins the property a kv run needs to time hits
// rather than misses: the key Gen draws for an index is byte-for-byte
// the key Preload stored for it.
func TestGenHitsPreloadedKeys(t *testing.T) {
	for _, m := range []KVModel{ETC(1000), USR(1000)} {
		store := kv.NewStore(4, 0)
		for _, p := range m.Preload(rand.New(rand.NewSource(1))) {
			key, val, err := kv.DecodeSetPayload(p)
			if err != nil {
				t.Fatal(err)
			}
			store.Set(key, val)
		}
		gen := m.Gen()
		rng := rand.New(rand.NewSource(2))
		gets, hits := 0, 0
		for i := 0; i < 10000; i++ {
			method, payload := gen(rng)
			switch method {
			case kv.MethodGet:
				gets++
				if _, ok := store.Get(payload); ok {
					hits++
				}
			case kv.MethodSet:
				key, val, err := kv.DecodeSetPayload(payload)
				if err != nil {
					t.Fatal(err)
				}
				store.Set(key, val)
			}
		}
		if gets == 0 || float64(hits) < 0.99*float64(gets) {
			t.Fatalf("%s: %d of %d GETs hit", m.Name, hits, gets)
		}
	}
}

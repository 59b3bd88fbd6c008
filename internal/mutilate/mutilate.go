// Package mutilate is an open-loop load generator in the spirit of the
// mutilate tool the paper uses (§3.2): Poisson arrivals spread over many
// connections, latency measured per request, with the ETC and USR
// memcached workload models of Atikoglu et al. (the Facebook traces) and
// arbitrary request generators for other applications.
//
// Latency is measured from the request's scheduled (intended) arrival
// time, not from the moment the sender got around to writing it, so a
// slow server cannot hide queueing delay by slowing the generator down —
// the "coordinated omission" correction open-loop methodology requires.
package mutilate

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"zygos/internal/dist"
	"zygos/internal/kv"
	"zygos/internal/stats"
)

// Target is one connection to the system under test. Both zygos.Client
// and zygos.TCPClient satisfy it. Requests travel method-routed (v3
// frames); a Gen returning method 0 drives the target's legacy route.
type Target interface {
	SendMethodAsync(method uint16, payload []byte, cb func(resp []byte, err error)) error
}

// Config parameterizes a load-generation run.
type Config struct {
	// Targets are the open connections load is spread over; each request
	// picks one uniformly at random (the paper's high fan-in pattern).
	Targets []Target
	// RatePerSec is the offered load.
	RatePerSec float64
	// Requests is the total number of requests to issue.
	Requests int
	// Warmup requests are issued but excluded from measurement.
	Warmup int
	// Gen builds the next request: the wire method it targets and its
	// payload. Single-operation workloads return a constant method
	// (0 for a server without a Mux).
	Gen func(rng *rand.Rand) (method uint16, payload []byte)
	// Check optionally validates each response; failures count as errors.
	Check func(resp []byte) bool
	Seed  int64
}

// Report is the outcome of a run.
type Report struct {
	Latencies   *stats.Sample // ns, measured from scheduled arrival
	Sent        int
	Completed   int
	Errors      int
	OfferedRPS  float64
	AchievedRPS float64
	Elapsed     time.Duration
}

// Run drives the configured open-loop workload to completion (all
// responses received or failed).
func Run(cfg Config) Report {
	if len(cfg.Targets) == 0 || cfg.Gen == nil || cfg.RatePerSec <= 0 || cfg.Requests <= 0 {
		panic("mutilate: Targets, Gen, RatePerSec and Requests are required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	arrivals := dist.PoissonArrivals{RatePerSec: cfg.RatePerSec}

	rep := Report{
		Latencies:  stats.NewSample(cfg.Requests),
		OfferedRPS: cfg.RatePerSec,
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var errs atomic.Int64

	start := time.Now()
	next := start
	for i := 0; i < cfg.Requests; i++ {
		// Open loop: arrival times come from the Poisson process alone.
		next = next.Add(time.Duration(arrivals.NextGap(rng)))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		method, payload := cfg.Gen(rng)
		target := cfg.Targets[rng.Intn(len(cfg.Targets))]
		scheduled := next
		measured := i >= cfg.Warmup
		wg.Add(1)
		err := target.SendMethodAsync(method, payload, func(resp []byte, err error) {
			defer wg.Done()
			if err != nil || (cfg.Check != nil && !cfg.Check(resp)) {
				errs.Add(1)
				return
			}
			if measured {
				lat := time.Since(scheduled).Nanoseconds()
				mu.Lock()
				rep.Latencies.Add(lat)
				rep.Completed++
				mu.Unlock()
			}
		})
		if err != nil {
			wg.Done()
			errs.Add(1)
			continue
		}
		rep.Sent++
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	rep.Errors = int(errs.Load())
	if rep.Elapsed > 0 {
		rep.AchievedRPS = float64(rep.Sent) / rep.Elapsed.Seconds()
	}
	return rep
}

// KVModel generates memcached-style GET/SET traffic over a fixed keyspace.
type KVModel struct {
	// Name identifies the model ("etc", "usr", ...).
	Name string
	// Keys is the keyspace size; keys are "key-<n>" padded to KeyLen.
	Keys int
	// KeyLen draws a key length in bytes.
	KeyLen func(rng *rand.Rand) int
	// ValueLen draws a value length in bytes for SETs.
	ValueLen func(rng *rand.Rand) int
	// GetFraction is the fraction of GET operations.
	GetFraction float64
}

// ETC approximates the Facebook ETC workload as modeled by mutilate:
// ~30:1 GET:SET, short keys (generalized-extreme-value-ish lengths around
// 30 bytes) and generalized-Pareto value sizes (scale 214.48, shape
// 0.3482), clamped to sane bounds.
func ETC(keys int) KVModel {
	valDist := dist.GeneralizedPareto{MuLoc: 15, Scale: 214.476, Shape: 0.348238}
	return KVModel{
		Name: "etc",
		Keys: keys,
		KeyLen: func(rng *rand.Rand) int {
			n := 20 + int(rng.ExpFloat64()*10)
			if n > 250 {
				n = 250
			}
			return n
		},
		ValueLen: func(rng *rand.Rand) int {
			n := int(valDist.Sample(rng))
			if n < 1 {
				n = 1
			}
			if n > 8192 {
				n = 8192
			}
			return n
		},
		GetFraction: 30.0 / 31.0,
	}
}

// USR approximates the Facebook USR workload: 99.8% GETs, 19-21 byte
// keys, 2 byte values — the near-deterministic tiny-task case the paper
// calls a near worst case for ZygOS (§6.2).
func USR(keys int) KVModel {
	return KVModel{
		Name:        "usr",
		Keys:        keys,
		KeyLen:      func(rng *rand.Rand) int { return 19 + rng.Intn(3) },
		ValueLen:    func(rng *rand.Rand) int { return 2 },
		GetFraction: 0.998,
	}
}

// draw makes one model decision — GET or SET, which key, and (for SETs)
// the value — shared by both generators so routed and legacy runs stay
// statistically identical.
func (m KVModel) draw(rng *rand.Rand) (isGet bool, key, val []byte) {
	key = m.key(rng)
	if rng.Float64() < m.GetFraction {
		return true, key, nil
	}
	val = make([]byte, m.ValueLen(rng))
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	return false, key, val
}

// Gen returns a method-routed request generator for the model, suitable
// for Config.Gen: GETs target kv.MethodGet with the bare key as
// payload, SETs target kv.MethodSet with the routed [klen][key][value]
// encoding — the opcode byte the legacy encoding spent per request now
// travels in the frame header where the server routes on it.
func (m KVModel) Gen() func(rng *rand.Rand) (uint16, []byte) {
	return func(rng *rand.Rand) (uint16, []byte) {
		isGet, key, val := m.draw(rng)
		if isGet {
			return kv.MethodGet, key
		}
		return kv.MethodSet, kv.EncodeSetPayload(nil, key, val)
	}
}

// LegacyGen is Gen in the pre-routing encoding: every request targets
// method 0 with an opcode byte in the payload. It exists to drive the
// legacy route of a routed server (interop testing) or a server without
// a Mux.
func (m KVModel) LegacyGen() func(rng *rand.Rand) (uint16, []byte) {
	return func(rng *rand.Rand) (uint16, []byte) {
		isGet, key, val := m.draw(rng)
		if isGet {
			return 0, kv.EncodeGet(nil, key)
		}
		return 0, kv.EncodeSet(nil, key, val)
	}
}

// Preload returns kv.MethodSet payloads (routed encoding) covering the
// whole keyspace, used to warm the store before measuring (mutilate's
// --loadonly phase): send each with CallMethod(kv.MethodSet, p).
func (m KVModel) Preload(rng *rand.Rand) [][]byte {
	out := make([][]byte, 0, m.Keys)
	for i := 0; i < m.Keys; i++ {
		key := m.keyN(i)
		val := make([]byte, m.ValueLen(rng))
		out = append(out, kv.EncodeSetPayload(nil, key, val))
	}
	return out
}

func (m KVModel) key(rng *rand.Rand) []byte {
	return m.keyN(rng.Intn(m.Keys))
}

// indexSource is a rand.Source64 seeded by a key index (a splitmix64
// stream), so that what KeyLen draws for index n is a function of n
// alone.
type indexSource uint64

func (s *indexSource) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *indexSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *indexSource) Seed(seed int64) { *s = indexSource(seed) }

// keyN builds the n-th key. Every byte of it, its length included, is
// fixed by n — the length is drawn from KeyLen's distribution with a
// generator seeded by n, not from the caller's stream — so the key Gen
// asks for is the key Preload stored.
func (m KVModel) keyN(n int) []byte {
	src := indexSource(n)
	kl := m.KeyLen(rand.New(&src))
	if kl < 12 {
		kl = 12
	}
	key := make([]byte, kl)
	copy(key, "key-")
	for i := 4; i < 12; i++ {
		key[i] = byte('0' + n%10)
		n /= 10
	}
	for i := 12; i < kl; i++ {
		key[i] = 'x'
	}
	return key
}

package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"zygos/internal/dist"
	"zygos/internal/kv"
)

type kind int

const (
	kindEcho kind = iota
	kindSpin
	kindKV
)

// workload is one traffic mix. Rates and windows are constants, not
// scaled to the machine, so numbers compare across commits; each
// open-loop rate was confirmed on the seed commit to be at most half of
// the workload's sat_rps on the 2-vCPU reference box.
type workload struct {
	name   string
	why    string
	kind   kind
	conns  int
	rate   float64 // open-loop offered load, requests per second
	window int     // closed-loop outstanding requests per connection
	warmup int     // closed-loop requests issued during set-up
}

var workloads = []workload{
	{
		name: "echo-sparse", kind: kindEcho, conns: 2, rate: 2000, window: 1, warmup: 10000,
		why: "8-byte echo at 2k rps: nearly every request finds workers and poller parked, so latency is the wake path",
	},
	{
		name: "echo-dense", kind: kindEcho, conns: 2, rate: 40000, window: 16, warmup: 40000,
		why: "same echo at 40k rps: batching amortises wakes and syscalls, so per-frame codec, ring and egress cost dominate",
	},
	{
		name: "spin-bimodal", kind: kindSpin, conns: 8, rate: 8000, window: 4, warmup: 10000,
		why: "paper's bimodal-1 spin (mean 25us) on 8 conns: handler time and dispersion dominate, so scheduling sets the tail",
	},
	{
		name: "kv-etc", kind: kindKV, conns: 2, rate: 20000, window: 16, warmup: 40000,
		why: "kv store behind a Mux, ETC mix: routed dispatch, 1B-8KB values, writes beside reads, multi-KB frames",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	spinMeanNs = 25000 // bimodal-1: 90% x 12.5us, 10% x 137.5us
	kvKeys     = 10000
)

// table is a workload's request stream, generated from the seed before
// any clock starts. The server sees only the bytes.
type table struct {
	kind kind
	n    int
	due  []int64 // open-loop send times, ns from the phase start (Poisson)
	warm int64   // requests due before this are sent and not measured
	conn []uint8 // connection each request is sent on

	arena []byte // echo, spin: 8 payload bytes per request

	// kv: per-request operation and key, per-key bytes. A key index has
	// one fixed key and one fixed value, so every GET can be checked.
	isSet []bool
	key   []uint32
	keys  [][]byte
	vals  [][]byte
	sets  [][]byte // routed MethodSet payloads, one per key
}

// newTable draws n requests for w from seed.
func newTable(w workload, seed int64, n int) *table {
	rng := rand.New(rand.NewSource(seed))
	t := &table{kind: w.kind, n: n, due: make([]int64, n), conn: make([]uint8, n)}
	arrivals := dist.PoissonArrivals{RatePerSec: w.rate}
	var at int64
	for i := range t.due {
		at += int64(arrivals.NextGap(rng))
		t.due[i] = at
		t.conn[i] = uint8(rng.Intn(w.conns))
	}
	switch w.kind {
	case kindEcho:
		t.arena = make([]byte, 8*n)
		rng.Read(t.arena)
	case kindSpin:
		t.arena = make([]byte, 8*n)
		d := dist.NewBimodal1(spinMeanNs)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(t.arena[8*i:], uint64(d.Sample(rng)))
		}
	case kindKV:
		t.genKV(rng)
	}
	return t
}

// genKV draws the ETC shape of Atikoglu et al. as internal/mutilate
// models it: key length 20 + Exp(10) bytes, generalized-Pareto value
// sizes clamped to 1 B - 8 KB, 30:1 GET:SET, keys uniform.
func (t *table) genKV(rng *rand.Rand) {
	valLen := dist.GeneralizedPareto{MuLoc: 15, Scale: 214.476, Shape: 0.348238}
	t.keys = make([][]byte, kvKeys)
	t.vals = make([][]byte, kvKeys)
	t.sets = make([][]byte, kvKeys)
	for k := range t.keys {
		kl := min(20+int(rng.ExpFloat64()*10), 250)
		key := bytes.Repeat([]byte{'x'}, kl)
		copy(key, "key-")
		for i, d := 11, k; i >= 4; i, d = i-1, d/10 {
			key[i] = byte('0' + d%10)
		}
		vl := min(max(int(valLen.Sample(rng)), 1), 8192)
		val := make([]byte, vl)
		for j := range val {
			val[j] = byte('a' + (k+j)%26)
		}
		t.keys[k], t.vals[k] = key, val
		t.sets[k] = kv.EncodeSetPayload(nil, key, val)
	}
	t.isSet = make([]bool, t.n)
	t.key = make([]uint32, t.n)
	for i := range t.key {
		t.key[i] = uint32(rng.Intn(kvKeys))
		t.isSet[i] = rng.Float64() >= 30.0/31.0
	}
}

// method returns the wire method of request i. Echo and spin run on a
// bare handler and travel as v3 frames on method 0.
func (t *table) method(i int) uint16 {
	if t.kind != kindKV {
		return 0
	}
	if t.isSet[i] {
		return kv.MethodSet
	}
	return kv.MethodGet
}

func (t *table) payload(i int) []byte {
	if t.kind != kindKV {
		return t.arena[8*i : 8*i+8]
	}
	if t.isSet[i] {
		return t.sets[t.key[i]]
	}
	return t.keys[t.key[i]]
}

// reply returns the bytes a correct server answers request i with.
func (t *table) reply(i int) []byte {
	switch {
	case t.kind == kindEcho:
		return t.payload(i)
	case t.kind == kindSpin:
		return spinReply
	case t.isSet[i]:
		return kvStored
	}
	return t.vals[t.key[i]] // after the ReplyHit byte
}

var (
	spinReply = []byte{0}
	kvStored  = []byte{kv.ReplyStored}
)

// check reports whether resp is the correct reply to request i, and for
// a kv GET whether it was a hit.
func (t *table) check(i int, resp []byte) (ok, getHit bool) {
	if t.kind == kindKV && !t.isSet[i] {
		hit := len(resp) > 0 && resp[0] == kv.ReplyHit
		return hit && bytes.Equal(resp[1:], t.reply(i)), hit
	}
	return bytes.Equal(resp, t.reply(i)), false
}

// spinNs is the busy-spin request i asks for; 0 unless a spin workload.
func (t *table) spinNs(i int) int64 {
	if t.kind != kindSpin {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(t.arena[8*i:]))
}

// hash digests everything the generator will send and when.
func (t *table) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < t.n; i++ {
		binary.LittleEndian.PutUint64(b[:], uint64(t.due[i]))
		h.Write(b[:])
		binary.LittleEndian.PutUint16(b[:], t.method(i))
		b[2] = t.conn[i]
		h.Write(b[:3])
		h.Write(t.payload(i))
	}
	return h.Sum64()
}

// preloadTable is the set-up stream that stores every key once. It has
// no schedule: set-up runs it as a closed loop.
func (t *table) preloadTable() *table {
	p := &table{kind: kindKV, n: kvKeys, keys: t.keys, vals: t.vals, sets: t.sets,
		isSet: make([]bool, kvKeys), key: make([]uint32, kvKeys)}
	for k := range p.key {
		p.key[k], p.isSet[k] = uint32(k), true
	}
	return p
}

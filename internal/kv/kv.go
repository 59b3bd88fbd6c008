// Package kv is a memcached-like in-memory key-value store: a sharded
// hash table with per-shard LRU eviction under a byte budget, served
// over the runtime as method-routed operations. It is the "tiny task"
// application of the paper's §6.2 (memcached ETC/USR), where
// per-request work is <2µs and dataplane overheads dominate.
//
// # Wire encodings
//
// Routed requests (the v3 frame's method ID names the operation, so no
// opcode travels in the payload):
//
//	MethodGet:    payload = key
//	MethodDelete: payload = key
//	MethodSet:    payload = [klen:2 LE][key][value]
//
// The legacy method-0 encoding keeps one opcode byte in front:
// [op:1][klen:2][key][value]; v1/v2 clients land there unchanged.
// Replies carry a one-byte code ([code:1][value]) in both schemes;
// malformed payloads and unknown opcodes surface as wire statuses
// (StatusAppError / StatusNoMethod), not in-band bytes.
package kv

import (
	"container/list"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"zygos"
	"zygos/internal/bufpool"
	"zygos/internal/kvwire"
)

// Method IDs of the routed operations (the kvwire contract). Method 0
// stays the legacy opcode-in-payload route.
const (
	MethodGet    = kvwire.MethodGet
	MethodSet    = kvwire.MethodSet
	MethodDelete = kvwire.MethodDelete
	// MethodInvalidate is the pub-sub topic invalidation events are
	// published on (see PublishInvalidations); it is a topic, not a
	// request route, and registers no handler.
	MethodInvalidate uint16 = 4
)

// Invalidation event ops, the first byte of an invalidation payload.
const (
	// InvalSet reports that a key was written (created or updated).
	InvalSet byte = iota
	// InvalDelete reports that a key was removed.
	InvalDelete
)

// Op codes of the legacy method-0 encoding: [op:1][klen:2][key][value].
const (
	OpGet byte = iota
	OpSet
	OpDelete
)

// Reply codes: [code:1][value].
const (
	ReplyHit byte = iota
	ReplyMiss
	ReplyStored
	ReplyDeleted
	ReplyNotFound
)

// ErrBadRequest reports a malformed request payload.
var ErrBadRequest = errors.New("kv: malformed request")

// EncodeGet builds a GET request payload.
func EncodeGet(buf []byte, key []byte) []byte {
	buf = append(buf, OpGet)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	return append(buf, key...)
}

// EncodeSet builds a SET request payload.
func EncodeSet(buf []byte, key, value []byte) []byte {
	buf = append(buf, OpSet)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	return append(buf, value...)
}

// EncodeDelete builds a DELETE request payload.
func EncodeDelete(buf []byte, key []byte) []byte {
	buf = append(buf, OpDelete)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	return append(buf, key...)
}

// DecodeRequest splits a legacy request payload into op, key and value.
func DecodeRequest(p []byte) (op byte, key, value []byte, err error) {
	if len(p) < 3 {
		return 0, nil, nil, ErrBadRequest
	}
	op = p[0]
	klen := int(binary.LittleEndian.Uint16(p[1:3]))
	if len(p) < 3+klen {
		return 0, nil, nil, ErrBadRequest
	}
	return op, p[3 : 3+klen], p[3+klen:], nil
}

// EncodeSetPayload builds a routed MethodSet payload: [klen:2][key][value].
// Routed GET and DELETE payloads are the bare key and need no encoder.
func EncodeSetPayload(buf []byte, key, value []byte) []byte {
	return kvwire.AppendSet(buf, key, value)
}

// DecodeSetPayload splits a routed MethodSet payload into key and value.
func DecodeSetPayload(p []byte) (key, value []byte, err error) {
	key, value, ok := kvwire.SplitSet(p)
	if !ok {
		return nil, nil, ErrBadRequest
	}
	return key, value, nil
}

// Store is a sharded LRU cache.
type Store struct {
	shards []*shard
	mask   uint32

	// pub, when set, receives an invalidation event on MethodInvalidate
	// for every mutation served by the wire handlers. atomic.Value of
	// zygos.Publisher; nil until PublishInvalidations.
	pub atomic.Value
}

type entry struct {
	key   string
	value []byte
}

type shard struct {
	mu       sync.Mutex
	items    map[string]*list.Element
	lru      *list.List // front = most recent
	bytes    int
	maxBytes int
	hits     uint64
	misses   uint64
	evicts   uint64
}

// NewStore creates a store with the given shard count (rounded up to a
// power of two) and per-shard byte budget.
func NewStore(shards, maxBytesPerShard int) *Store {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n *= 2
	}
	if maxBytesPerShard <= 0 {
		maxBytesPerShard = 64 << 20
	}
	s := &Store{mask: uint32(n - 1)}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, &shard{
			items:    make(map[string]*list.Element),
			lru:      list.New(),
			maxBytes: maxBytesPerShard,
		})
	}
	return s
}

func (s *Store) shardFor(key []byte) *shard {
	h := fnv.New32a()
	h.Write(key)
	return s.shards[h.Sum32()&s.mask]
}

// Get returns a copy of the value stored under key.
func (s *Store) Get(key []byte) ([]byte, bool) {
	v, ok := s.AppendGet(nil, key)
	if !ok {
		return nil, false
	}
	return v, true
}

// AppendGet appends the value stored under key to dst and returns the
// extended slice — the single-copy form callers with their own buffers
// use.
func (s *Store) AppendGet(dst []byte, key []byte) ([]byte, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[string(key)]
	if !ok {
		sh.misses++
		return dst, false
	}
	sh.hits++
	sh.lru.MoveToFront(el)
	return append(dst, el.Value.(*entry).value...), true
}

// getReply builds the [ReplyHit][value] reply for key in a pooled
// buffer sized exactly for the value — the size is only known under the
// shard lock, which is why the pool checkout happens here rather than
// in the handler. The caller must bufpool.Put the reply once it is
// encoded on the wire. Returns nil, false on a miss.
func (s *Store) getReply(key []byte) ([]byte, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[string(key)]
	if !ok {
		sh.misses++
		return nil, false
	}
	sh.hits++
	sh.lru.MoveToFront(el)
	v := el.Value.(*entry).value
	buf := bufpool.Get(1 + len(v))
	return append(append(buf, ReplyHit), v...), true
}

// Set stores a copy of value under key, evicting LRU entries as needed.
func (s *Store) Set(key, value []byte) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	vcopy := append([]byte(nil), value...)
	if el, ok := sh.items[string(key)]; ok {
		e := el.Value.(*entry)
		sh.bytes += len(vcopy) - len(e.value)
		e.value = vcopy
		sh.lru.MoveToFront(el)
	} else {
		e := &entry{key: string(key), value: vcopy}
		sh.items[e.key] = sh.lru.PushFront(e)
		sh.bytes += len(e.key) + len(vcopy)
	}
	for sh.bytes > sh.maxBytes && sh.lru.Len() > 1 {
		oldest := sh.lru.Back()
		e := oldest.Value.(*entry)
		sh.lru.Remove(oldest)
		delete(sh.items, e.key)
		sh.bytes -= len(e.key) + len(e.value)
		sh.evicts++
	}
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(key []byte) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[string(key)]
	if !ok {
		return false
	}
	e := el.Value.(*entry)
	sh.lru.Remove(el)
	delete(sh.items, e.key)
	sh.bytes -= len(e.key) + len(e.value)
	return true
}

// Len returns the total number of stored entries.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// CacheStats aggregates hit/miss/eviction counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Bytes                   int
}

// Stats returns aggregate counters across shards.
func (s *Store) Stats() CacheStats {
	var cs CacheStats
	for _, sh := range s.shards {
		sh.mu.Lock()
		cs.Hits += sh.hits
		cs.Misses += sh.misses
		cs.Evictions += sh.evicts
		cs.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return cs
}

// PublishInvalidations wires the store's wire handlers to publish an
// invalidation event on topic MethodInvalidate for every SET and every
// effective DELETE they serve: caches layered in front of the store
// subscribe and evict on sight instead of polling. The event's frame ID
// is InvalidationID(key) — FilterExact/FilterMask/FilterRange narrow a
// subscription to a key or an ID-space slice — and its payload is
// [op:1][key]. Passing nil stops publishing. Direct Set/Delete calls on
// the Store (not via the handlers) do not publish; they are local
// mutations, not served traffic.
func (s *Store) PublishInvalidations(pub zygos.Publisher) {
	if pub == nil {
		s.pub.Store(pubBox{})
		return
	}
	s.pub.Store(pubBox{p: pub})
}

// pubBox wraps the Publisher so atomic.Value tolerates differing
// concrete types (and nil) across Store calls.
type pubBox struct{ p zygos.Publisher }

// InvalidationID maps a key to the 32-bit frame identifier its
// invalidation events carry (FNV-1a), letting subscribers filter the
// invalidation stream by key without decoding payloads.
func InvalidationID(key []byte) uint32 {
	h := fnv.New32a()
	h.Write(key)
	return h.Sum32()
}

// EncodeInvalidation builds an invalidation event payload: [op:1][key].
func EncodeInvalidation(buf []byte, op byte, key []byte) []byte {
	return append(append(buf, op), key...)
}

// DecodeInvalidation splits an invalidation event payload.
func DecodeInvalidation(p []byte) (op byte, key []byte, err error) {
	if len(p) < 1 {
		return 0, nil, ErrBadRequest
	}
	return p[0], p[1:], nil
}

// invalidate publishes one invalidation event if a publisher is wired.
func (s *Store) invalidate(op byte, key []byte) {
	box, _ := s.pub.Load().(pubBox)
	if box.p == nil {
		return
	}
	payload := EncodeInvalidation(bufpool.Get(1+len(key)), op, key)
	box.p.Publish(MethodInvalidate, InvalidationID(key), payload)
	bufpool.Put(payload)
}

// RegisterRoutes mounts the store on mux: one route per operation
// (MethodGet/MethodSet/MethodDelete) plus the legacy opcode-in-payload
// handler on method 0, so v1/v2 clients keep round-tripping against a
// routed server. The returned mux is the one passed in, for chaining.
func (s *Store) RegisterRoutes(mux *zygos.Mux) *zygos.Mux {
	mux.HandleFunc(MethodGet, s.HandleGet)
	mux.HandleFunc(MethodSet, s.HandleSet)
	mux.HandleFunc(MethodDelete, s.HandleDelete)
	mux.HandleFunc(0, s.ServeLegacy)
	return mux
}

// NewMux returns a fresh Mux with the store's routes registered — the
// one-liner servers mount as Config.Handler.
func (s *Store) NewMux() *zygos.Mux {
	return s.RegisterRoutes(zygos.NewMux())
}

// replyBytes holds the single-byte replies so answering with one does
// not allocate; index by reply code.
var replyBytes = [...][1]byte{
	{ReplyHit}, {ReplyMiss}, {ReplyStored}, {ReplyDeleted}, {ReplyNotFound},
}

// replyGet answers a GET for key: [ReplyHit][value] or [ReplyMiss].
// The hit reply lives in a pooled buffer sized to the value, returned
// once Reply has encoded it into the wire frame (Reply copies
// synchronously), so the GET hot path allocates nothing at steady state
// regardless of value size.
func (s *Store) replyGet(w zygos.ResponseWriter, key []byte) {
	v, ok := s.getReply(key)
	if !ok {
		w.Reply(replyBytes[ReplyMiss][:])
		return
	}
	w.Reply(v)
	bufpool.Put(v)
}

// HandleGet serves MethodGet: the payload is the key, the reply is
// [ReplyHit][value] or [ReplyMiss].
func (s *Store) HandleGet(w zygos.ResponseWriter, req *zygos.Request) {
	s.replyGet(w, req.Payload)
}

// HandleSet serves MethodSet: the payload is [klen:2][key][value]; a
// malformed payload is a StatusAppError on the wire.
func (s *Store) HandleSet(w zygos.ResponseWriter, req *zygos.Request) {
	key, value, err := DecodeSetPayload(req.Payload)
	if err != nil {
		w.Error(zygos.StatusAppError, err.Error())
		return
	}
	s.Set(key, value)
	s.invalidate(InvalSet, key)
	w.Reply(replyBytes[ReplyStored][:])
}

// HandleDelete serves MethodDelete: the payload is the key.
func (s *Store) HandleDelete(w zygos.ResponseWriter, req *zygos.Request) {
	if s.Delete(req.Payload) {
		s.invalidate(InvalDelete, req.Payload)
		w.Reply(replyBytes[ReplyDeleted][:])
		return
	}
	w.Reply(replyBytes[ReplyNotFound][:])
}

// ServeLegacy serves the method-0 route: the pre-routing encoding with
// an opcode byte in the payload. Malformed payloads surface as
// StatusAppError and unknown opcodes as StatusNoMethod — wire statuses
// a client can type-switch on, where the old Serve hid both behind an
// in-band error byte indistinguishable from data.
func (s *Store) ServeLegacy(w zygos.ResponseWriter, req *zygos.Request) {
	op, key, value, err := DecodeRequest(req.Payload)
	if err != nil {
		w.Error(zygos.StatusAppError, err.Error())
		return
	}
	switch op {
	case OpGet:
		s.replyGet(w, key)
	case OpSet:
		s.Set(key, value)
		s.invalidate(InvalSet, key)
		w.Reply(replyBytes[ReplyStored][:])
	case OpDelete:
		if s.Delete(key) {
			s.invalidate(InvalDelete, key)
			w.Reply(replyBytes[ReplyDeleted][:])
			return
		}
		w.Reply(replyBytes[ReplyNotFound][:])
	default:
		w.Error(zygos.StatusNoMethod, "kv: unknown opcode")
	}
}

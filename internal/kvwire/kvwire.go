// Package kvwire is the kv application's routed wire contract, owned in
// one place: the method IDs, the SET payload layout, and the routing key
// each method carries. GET and DELETE payloads are the bare key; SET
// payloads are [klen:2 LE][key][value]. It is a leaf package so the kv
// store (which serves the contract) and the cluster tier (which routes
// by it) share it without an import cycle.
package kvwire

import "encoding/binary"

// Method IDs of the routed kv operations.
const (
	MethodGet    uint16 = 1
	MethodSet    uint16 = 2
	MethodDelete uint16 = 3
)

// AppendSet appends a SET payload for key and value to buf.
func AppendSet(buf, key, value []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	return append(buf, value...)
}

// SplitSet splits a SET payload into key and value; ok is false if the
// payload is malformed.
func SplitSet(p []byte) (key, value []byte, ok bool) {
	if len(p) < 2 {
		return nil, nil, false
	}
	klen := int(binary.LittleEndian.Uint16(p[0:2]))
	if len(p) < 2+klen {
		return nil, nil, false
	}
	return p[2 : 2+klen], p[2+klen:], true
}

// KeyFunc extracts the routing key of a routed kv request: GET reads,
// SET and DELETE write. Unknown methods and malformed SETs are unkeyed
// (ok=false), so mixed workloads fall back to policy balancing. Its
// signature is the cluster tier's KeyFunc.
func KeyFunc(method uint16, payload []byte) (key []byte, write, ok bool) {
	switch method {
	case MethodGet:
		return payload, false, true
	case MethodDelete:
		return payload, true, true
	case MethodSet:
		key, _, ok = SplitSet(payload)
		return key, ok, ok
	}
	return nil, false, false
}

package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
)

// benchIDL is the interface the SUT's gateway publishes and its backend
// ORB serves. get is idempotent, so the gateway caches it; every other
// operation reaches the backend on every request.
const benchIDL = `
module bench {
  struct Record { string name; sequence<long> vals; };

  interface Store {
    // idempotent
    long long get(in long key);
    long touch(in long key);
    long put(in long slot, in Record rec);
    Record fetch(in long slot);
  };

  interface Echo {
    sequence<octet> echo(in sequence<octet> data);
  };
};
`

const (
	storeRepoID = "IDL:bench/Store:1.0"
	echoRepoID  = "IDL:bench/Echo:1.0"
	eventType   = "bench.tick"
	eventSource = "p0"
)

// Key space of gw-read: four times the response cache's 16 shards ×
// 4096 entries, so Zipf-skewed reads both hit and overflow the cache.
const (
	readKeys    = 1 << 18
	writeEvery  = 1000 // gw-read: one write to the route per this many requests
	writeSlots  = 64   // gw-write: record slots per caller
	maxVals     = 256  // gw-write: longest sequence<long> in a Record
	streamRead  = 1 << 16
	streamWrite = 1 << 14
	streamEcho  = 1 << 16
	streamEvent = 1 << 16
)

// readValue is what the backend returns for get(key): a pure function of
// the key, so a cached reply stays correct across generation bumps.
func readValue(key int32) int64 { return int64(key)*2654435761%1000003 + 7 }

// recordSum is what put returns for a record.
func recordSum(name string, vals []int32) int32 {
	s := int32(len(name))
	for _, v := range vals {
		s += v
	}
	return s
}

// rng returns the generator for one input stream of one caller.
func rng(seed int64, stream, caller int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(stream)<<32|uint64(caller)))
}

// idDigits is the width of the hexadecimal call-ID field patched into
// each pre-encoded HTTP request before it is sent.
const idDigits = 16

// httpReq locates one pre-encoded request and its expected reply body in
// an httpStream.
type httpReq struct {
	off, n   int32 // request bytes in buf
	idOff    int32 // offset of the call-ID digits in buf
	eoff, en int32 // expected response body in exp
	payload  int32 // JSON argument bytes + expected result bytes
}

// httpStream is one caller's pre-encoded HTTP/1.1 requests, in send
// order, with the exact response body each must produce.
type httpStream struct {
	caller int
	buf    []byte
	exp    []byte
	reqs   []httpReq
}

func (s *httpStream) add(op, body string, expect []byte) {
	start := len(s.buf)
	s.buf = fmt.Appendf(s.buf, "POST /obj/store/%s HTTP/1.1\r\nHost: sut\r\nX-Call-Id: c%d-", op, s.caller)
	idOff := len(s.buf)
	for i := 0; i < idDigits; i++ {
		s.buf = append(s.buf, '0')
	}
	s.buf = fmt.Appendf(s.buf, "\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	eoff := len(s.exp)
	s.exp = append(s.exp, expect...)
	s.reqs = append(s.reqs, httpReq{
		off: int32(start), n: int32(len(s.buf) - start), idOff: int32(idOff),
		eoff: int32(eoff), en: int32(len(expect)),
		payload: int32(len(body) + len(expect)),
	})
}

// resultBody renders a reply body the way the gateway does: one JSON
// object holding the result, newline-terminated.
func resultBody(v any) []byte {
	b, err := json.Marshal(map[string]any{"result": v})
	if err != nil {
		panic(err) // only ints, strings and slices of them reach here
	}
	return append(b, '\n')
}

// genRead is gw-read: Zipf-skewed get(key) over readKeys, with one
// touch(key) — a non-idempotent write that bumps the route's cache
// generation — in every writeEvery requests.
func genRead(seed int64, caller, n int) *httpStream {
	r := rng(seed, 1, caller)
	z := rand.NewZipf(r, 1.1, 1, readKeys-1)
	s := &httpStream{caller: caller}
	for i := 0; i < n; i++ {
		key := int32(z.Uint64())
		if r.IntN(writeEvery) == 0 {
			s.add("touch", "["+strconv.Itoa(int(key))+"]", resultBody(key+1))
			continue
		}
		s.add("get", "["+strconv.Itoa(int(key))+"]", resultBody(readValue(key)))
	}
	return s
}

// genWrite is gw-write: alternating put(slot, record) and fetch(slot) of
// the same slot, so every fetch must return the record just written.
// Each caller owns its own slots.
func genWrite(seed int64, caller, n int) *httpStream {
	r := rng(seed, 2, caller)
	s := &httpStream{caller: caller}
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := 0; i+1 < n; i += 2 {
		slot := int32(caller*1000 + r.IntN(writeSlots))
		name := make([]byte, 1+r.IntN(24))
		for j := range name {
			name[j] = letters[r.IntN(len(letters))]
		}
		vals := make([]int32, r.IntN(maxVals+1))
		jvals := make([]any, len(vals))
		for j := range vals {
			vals[j] = int32(r.IntN(2_000_001) - 1_000_000)
			jvals[j] = vals[j]
		}
		rec := map[string]any{"name": string(name), "vals": jvals}
		arg, err := json.Marshal([]any{slot, rec})
		if err != nil {
			panic(err)
		}
		s.add("put", string(arg), resultBody(recordSum(string(name), vals)))
		s.add("fetch", "["+strconv.Itoa(int(slot))+"]", resultBody(rec))
	}
	return s
}

// Echo size mix for iiop-direct: mostly small messages where per-message
// cost dominates, some 4 KiB and 64 KiB, and a 2% share of 512 KiB —
// above iiop.DefaultMaxFragment, so GIOP 1.2 fragmentation runs. The
// 512 KiB share is kept above 1% so p99 falls inside one size class
// rather than on the boundary between two.
var echoClasses = []struct {
	weight int // per 100
	size   int // 0 means uniform 0–64 bytes
}{
	{85, 0}, {8, 4 << 10}, {5, 64 << 10}, {2, 512 << 10},
}

const echoVariants = 4

// echoStream is one caller's iiop-direct requests: each names one of a
// set of pre-generated payloads.
type echoStream struct {
	payloads [][]byte
	reqs     []int32 // index into payloads
}

// echoPayloads builds the payloads every caller draws from: one per
// small length 0–64 and echoVariants per larger class.
func echoPayloads(seed int64) [][]byte {
	r := rng(seed, 3, 99)
	var ps [][]byte
	fill := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Uint32())
		}
		return b
	}
	for n := 0; n <= 64; n++ {
		ps = append(ps, fill(n))
	}
	for _, c := range echoClasses[1:] {
		for v := 0; v < echoVariants; v++ {
			ps = append(ps, fill(c.size))
		}
	}
	return ps
}

func genEcho(seed int64, caller, n int, payloads [][]byte) *echoStream {
	r := rng(seed, 4, caller)
	s := &echoStream{payloads: payloads, reqs: make([]int32, n)}
	for i := range s.reqs {
		w := r.IntN(100)
		base := 65
		for ci, c := range echoClasses {
			if w < c.weight {
				if ci == 0 {
					s.reqs[i] = int32(r.IntN(65))
				} else {
					s.reqs[i] = int32(base + (ci-1)*echoVariants + r.IntN(echoVariants))
				}
				break
			}
			w -= c.weight
		}
	}
	return s
}

// eventStream is the events-push pusher's input: event i carries its
// sequence number in its first 8 bytes, followed by fill[i%len(fill)]
// cut to a seeded length of 32–512 bytes.
type eventStream struct {
	lens []int32
	fill [][]byte
}

func genEvents(seed int64, n int) *eventStream {
	r := rng(seed, 5, 0)
	s := &eventStream{lens: make([]int32, n)}
	for i := 0; i < 16; i++ {
		b := make([]byte, 512)
		for j := range b {
			b[j] = byte(r.Uint32())
		}
		s.fill = append(s.fill, b)
	}
	for i := range s.lens {
		s.lens[i] = int32(32 + r.IntN(481))
	}
	return s
}

// event writes event seq's data into dst (which must hold 512 bytes) and
// returns it.
func (s *eventStream) event(seq uint64, dst []byte) []byte {
	i := int(seq % uint64(len(s.lens)))
	n := int(s.lens[i])
	dst = dst[:n]
	binary.BigEndian.PutUint64(dst, seq)
	copy(dst[8:], s.fill[seq%uint64(len(s.fill))][:n-8])
	return dst
}

// check reports whether data is exactly event seq's data.
func (s *eventStream) check(seq uint64, data []byte) bool {
	i := int(seq % uint64(len(s.lens)))
	n := int(s.lens[i])
	if len(data) != n || binary.BigEndian.Uint64(data) != seq {
		return false
	}
	return bytes.Equal(data[8:], s.fill[seq%uint64(len(s.fill))][:n-8])
}

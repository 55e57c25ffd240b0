package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// digest hashes every input a workload would send, in order.
func digest(t *testing.T, name string, seed int64) string {
	t.Helper()
	h := sha256.New()
	switch name {
	case "gw-read", "gw-write":
		for c := 0; c < 2; c++ {
			var s *httpStream
			if name == "gw-read" {
				s = genRead(seed, c, 4096)
			} else {
				s = genWrite(seed, c, 4096)
			}
			h.Write(s.buf)
			h.Write(s.exp)
		}
	case "iiop-direct":
		ps := echoPayloads(seed)
		for c := 0; c < 2; c++ {
			for _, i := range genEcho(seed, c, 4096, ps).reqs {
				h.Write(ps[i])
			}
		}
	case "events-push":
		s := genEvents(seed, 4096)
		buf := make([]byte, 512)
		for i := uint64(0); i < 4096; i++ {
			h.Write(s.event(i, buf))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range workloadNames() {
		a, b := digest(t, name, 42), digest(t, name, 42)
		if a != b {
			t.Errorf("%s: seed 42 gave two different streams", name)
		}
		if c := digest(t, name, 43); c == a {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", name)
		}
	}
}

func TestGatewayStreams(t *testing.T) {
	r := genRead(7, 0, 20000)
	touches := 0
	for _, q := range r.reqs {
		if string(r.buf[q.off+16:q.off+21]) == "touch" {
			touches++
		}
	}
	if touches < 5 || touches > 40 {
		t.Errorf("gw-read: %d writes in 20000 requests, want about 20", touches)
	}
	w := genWrite(7, 1, 1000)
	for i, q := range w.reqs {
		var v map[string]any
		if err := json.Unmarshal(w.exp[q.eoff:q.eoff+q.en], &v); err != nil {
			t.Fatalf("request %d: expected reply is not JSON: %v", i, err)
		}
		if _, ok := v["result"]; !ok {
			t.Fatalf("request %d: expected reply has no result", i)
		}
	}
}

func TestEchoMix(t *testing.T) {
	ps := echoPayloads(1)
	s := genEcho(1, 0, 100000, ps)
	big := 0
	for _, i := range s.reqs {
		if len(ps[i]) == 512<<10 {
			big++
		}
	}
	if share := float64(big) / float64(len(s.reqs)); share < 0.015 || share > 0.025 {
		t.Errorf("512 KiB share = %.4f, want about 0.02", share)
	}
}

func TestEventCheck(t *testing.T) {
	s := genEvents(3, 100)
	buf := make([]byte, 512)
	ev := s.event(5, buf)
	if len(ev) < 32 || len(ev) > 512 || !s.check(5, ev) {
		t.Fatalf("event 5 (%d bytes) does not check", len(ev))
	}
	if s.check(6, ev) {
		t.Fatal("event 5 checks as event 6")
	}
	ev[len(ev)-1] ^= 1
	if s.check(5, ev) {
		t.Fatal("corrupted event checks")
	}
}

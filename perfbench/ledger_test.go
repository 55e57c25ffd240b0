package main

import (
	"bufio"
	"bytes"
	"math"
	"reflect"
	"testing"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, tc := range []struct {
		name string
		kids []span
		want int64
	}{
		{"none", nil, 100},
		{"nested", []span{{start: 120, end: 150}}, 70},
		{"disjoint", []span{{start: 110, end: 120}, {start: 150, end: 170}}, 70},
		{"overlapping", []span{{start: 110, end: 150}, {start: 140, end: 160}}, 50},
		{"contained twice", []span{{start: 110, end: 190}, {start: 120, end: 130}}, 20},
		{"sticking out", []span{{start: 50, end: 120}, {start: 180, end: 260}}, 60},
		{"outside", []span{{start: 10, end: 90}}, 100},
		{"unsorted", []span{{start: 160, end: 170}, {start: 105, end: 115}, {start: 110, end: 125}}, 70},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestJoinByCallID(t *testing.T) {
	spans := []span{
		{layer: layerGateway, id: "a", start: 2, end: 9},
		{layer: layerRequest, id: "b", start: 0, end: 5},
		{layer: layerRequest, id: "a", start: 1, end: 10},
		{layer: layerServant, id: "", start: 3, end: 4}, // unjoinable
	}
	calls := joinByCallID(spans)
	if len(calls) != 2 || len(calls["a"]) != 2 || len(calls["b"]) != 1 {
		t.Fatalf("calls = %v", calls)
	}
	if kids := childrenOf(calls["a"], layerRequest); len(kids) != 1 || kids[0].layer != layerGateway {
		t.Fatalf("children of a's request = %v", kids)
	}
}

// TestLedgerGatewayCall checks one cache-miss gateway call: every layer
// nests in the one above it, so the layers' self times add up to the
// request span and the residue is zero.
func TestLedgerGatewayCall(t *testing.T) {
	call := []span{
		{layer: layerRequest, id: "x", start: 0, end: 100_000},
		{layer: layerGateway, id: "x", start: 10_000, end: 90_000},
		{layer: layerORBClient, id: "x", start: 20_000, end: 80_000},
		{layer: layerIIOP, id: "x", start: 25_000, end: 75_000, in: 100, out: 40},
		{layer: layerORBServer, id: "x", start: 40_000, end: 60_000},
		{layer: layerServant, id: "x", start: 45_000, end: 50_000},
		// A span of a request the load generator did not time (a set-up
		// probe) is left out.
		{layer: layerGateway, id: "probe", start: 0, end: 1},
	}
	l := buildLedger(call)
	if l.calls != 1 {
		t.Fatalf("calls = %d", l.calls)
	}
	want := map[string][]float64{
		"httpEdge": {20}, "gwServe": {80}, "gwSelf": {20}, "clientSelf": {10},
		"iiopCall": {50}, "iiopWire": {30}, "server": {20}, "serverSelf": {15}, "servant": {5},
	}
	got := map[string][]float64{
		"httpEdge": l.httpEdge, "gwServe": l.gwServe, "gwSelf": l.gwSelf, "clientSelf": l.clientSelf,
		"iiopCall": l.iiopCall, "iiopWire": l.iiopWire, "server": l.server, "serverSelf": l.serverSelf, "servant": l.servant,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger = %v, want %v", got, want)
	}
	if r := l.residue(); math.Abs(r) > 1e-12 {
		t.Fatalf("residue = %v, want 0", r)
	}
}

// TestLedgerResidue checks a native-client call: the request span's own
// time is not any layer's, so it is residue; a cache hit has no ORB
// spans at all.
func TestLedgerResidue(t *testing.T) {
	spans := []span{
		{layer: layerRequest, id: "n", start: 0, end: 100},
		{layer: layerORBClient, id: "n", start: 25, end: 100},
		{layer: layerRequest, id: "hit", start: 0, end: 100},
		{layer: layerGateway, id: "hit", start: 50, end: 100},
	}
	l := buildLedger(spans)
	if r := l.residue(); math.Abs(r-0.125) > 1e-12 {
		t.Fatalf("residue = %v, want 25/200", r)
	}
	if len(l.iiopCall) != 0 || len(l.gwSelf) != 1 || l.gwSelf[0] != 0.05 {
		t.Fatalf("ledger = %+v", l)
	}
}

func TestSpanRoundTrip(t *testing.T) {
	in := []span{
		{layer: layerIIOP, id: "c0-00000000000000ff", start: 1, end: 2, in: 3, out: 4, err: true},
		{layer: layerServant, id: "e1-a", start: 5, end: 6},
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readSpans(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %v != %v", out, in)
	}
}

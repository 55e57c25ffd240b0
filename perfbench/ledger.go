package main

import (
	"sort"

	"corbalc/internal/giop"
	"corbalc/internal/iiop"
)

// joinByCallID groups spans by the correlation ID they were recorded
// under: X-Call-Id at the HTTP edge, SvcCallID on every ORB hop.
func joinByCallID(spans []span) map[string][]span {
	calls := make(map[string][]span)
	for _, s := range spans {
		if s.id != "" {
			calls[s.id] = append(calls[s.id], s)
		}
	}
	return calls
}

// childrenOf returns the spans of call at the nearest layer below layer
// that the call has. A cache hit has no ORB spans under gateway.serve; a
// native client has no gateway span under its request.
func childrenOf(call []span, layer int) []span {
	best := numLayers
	for _, s := range call {
		if s.layer > layer && s.layer < best {
			best = s.layer
		}
	}
	var kids []span
	for _, s := range call {
		if s.layer == best {
			kids = append(kids, s)
		}
	}
	return kids
}

// selfTime is s's duration minus the part of it its children cover.
// Children may overlap each other or stick out of s; only the union of
// their intervals, clipped to s, is subtracted.
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return s.dur() - covered
}

// ledger is the per-layer breakdown of the calls a traced run joined.
// Durations are in microseconds.
type ledger struct {
	calls                       int
	httpEdge                    []float64 // request span minus gateway.serve
	gwServe, gwSelf             []float64
	clientSelf                  []float64
	iiopCall, iiopWire          []float64
	reqBytes, replyBytes        []float64
	fragmented                  int
	server, serverSelf, servant []float64
	rootNs, attributedNs        int64
}

// buildLedger joins spans by call ID and attributes each call's time to
// layers. Only calls with a load-generator request span count, so set-up
// probes and warm-up traffic are left out. Time in the request span that
// no layer accounts for — the load generator's own work, and on native
// clients the ORB's work outside its interceptor points — is residue.
func buildLedger(spans []span) ledger {
	var l ledger
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, call := range joinByCallID(spans) {
		var root *span
		for i := range call {
			if call[i].layer == layerRequest {
				root = &call[i]
			}
		}
		if root == nil {
			continue
		}
		l.calls++
		l.rootNs += root.dur()
		for _, s := range call {
			kids := childrenOf(call, s.layer)
			self := selfTime(s, kids)
			switch s.layer {
			case layerRequest:
				if len(kids) > 0 && kids[0].layer == layerGateway {
					l.httpEdge = append(l.httpEdge, us(self))
					l.attributedNs += self
				}
			case layerGateway:
				l.gwServe = append(l.gwServe, us(s.dur()))
				l.gwSelf = append(l.gwSelf, us(self))
				l.attributedNs += self
			case layerORBClient:
				l.clientSelf = append(l.clientSelf, us(self))
				l.attributedNs += self
			case layerIIOP:
				l.iiopCall = append(l.iiopCall, us(s.dur()))
				l.iiopWire = append(l.iiopWire, us(self))
				l.reqBytes = append(l.reqBytes, float64(s.in))
				l.replyBytes = append(l.replyBytes, float64(s.out))
				if s.in-giop.HeaderLen > iiop.DefaultMaxFragment || s.out-giop.HeaderLen > iiop.DefaultMaxFragment {
					l.fragmented++
				}
				l.attributedNs += self
			case layerORBServer:
				l.server = append(l.server, us(s.dur()))
				l.serverSelf = append(l.serverSelf, us(self))
				l.attributedNs += self
			case layerServant:
				l.servant = append(l.servant, us(s.dur()))
				l.attributedNs += self
			}
		}
	}
	return l
}

// residue is the share of request-span time no layer's self time
// accounts for.
func (l ledger) residue() float64 {
	if l.rootNs == 0 {
		return 0
	}
	return 1 - float64(l.attributedNs)/float64(l.rootNs)
}

// p50 and p99 of a layer's samples; an absent layer reports 0.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sorted(xs), 0.5)
}

func p99(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, v := tail(sorted(xs), 0.99)
	return v
}

func meanOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/giop"
	"corbalc/internal/iiop"
	"corbalc/internal/orb"
	"corbalc/internal/svcctx"
)

// Layers, outermost first. A span's children are the spans of the same
// call at the next deeper layer that the call has.
const (
	layerRequest   = iota // load generator: one request, send to reply
	layerGateway          // http.Handler wrapper around the gateway
	layerORBClient        // ClientInterceptor: SendRequest to ReceiveReply
	layerIIOP             // orb.Channel wrapper around the iiop channel
	layerORBServer        // iiop.Handler wrapper around ORB.HandleMessage
	layerServant          // the ContextServantFunc
	numLayers
)

// span is one timed interval at one layer of one call. Times are wall
// clock nanoseconds, so spans from the load generator and the SUT share
// one time base. in and out carry the GIOP message sizes of iiop spans.
type span struct {
	layer      int
	id         string
	start, end int64
	in, out    int
	err        bool
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the process writes them out.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

func now() int64 { return time.Now().UnixNano() }

// writeSpans writes spans one per line, ending with a lone "end" line.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		e := 0
		if s.err {
			e = 1
		}
		fmt.Fprintf(bw, "%d %s %d %d %d %d %d\n", s.layer, s.id, s.start, s.end, s.in, s.out, e)
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// readSpans reads what writeSpans wrote.
func readSpans(br *bufio.Reader) ([]span, error) {
	var spans []span
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("reading spans: %w", err)
		}
		line = strings.TrimSuffix(line, "\n")
		if line == "end" {
			return spans, nil
		}
		f := strings.Fields(line)
		if len(f) != 7 {
			return nil, fmt.Errorf("bad span line %q", line)
		}
		var n [6]int64
		for i, j := range []int{0, 2, 3, 4, 5, 6} {
			if n[i], err = strconv.ParseInt(f[j], 10, 64); err != nil {
				return nil, fmt.Errorf("bad span line %q", line)
			}
		}
		spans = append(spans, span{layer: int(n[0]), id: f[1], start: n[1], end: n[2], in: int(n[3]), out: int(n[4]), err: n[5] != 0})
	}
}

// tracedHandler records the gateway.serve span of each HTTP request,
// keyed by the X-Call-Id the load generator sends.
func tracedHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := now()
		h.ServeHTTP(w, r)
		rec.add(span{layer: layerGateway, id: r.Header.Get("X-Call-Id"), start: start, end: now()})
	})
}

// clientSpans is a ClientInterceptor recording the orb.client span. The
// ORB reports the call's Elapsed time at ReceiveReply, so the span needs
// no state between the two interception points.
type clientSpans struct{ rec *recorder }

func (clientSpans) SendRequest(context.Context, *orb.RequestInfo) {}

func (c clientSpans) ReceiveReply(_ context.Context, info *orb.RequestInfo) {
	if info.Oneway {
		return
	}
	end := now()
	c.rec.add(span{layer: layerORBClient, id: info.CallID, start: end - int64(info.Elapsed), end: end, err: info.Err != nil})
}

// tracedTransport wraps iiop.Transport so each two-way call records an
// iiop.call span. Embedding forwards Tag, Endpoint and ChannelPoolSize,
// so the ORB builds the same striped pool it builds for the bare
// transport.
type tracedTransport struct {
	*iiop.Transport
	rec *recorder
}

func (t tracedTransport) Dial(ctx context.Context, profile []byte) (orb.Channel, error) {
	ch, err := t.Transport.Dial(ctx, profile)
	if err != nil {
		return nil, err
	}
	return &tracedChannel{Channel: ch, rec: t.rec}, nil
}

// tracedChannel forwards Unusable, CallAsync and SendOwned to the iiop
// channel, so the pool's eviction and the ORB's async and SyncNone paths
// run exactly as they do untraced.
type tracedChannel struct {
	orb.Channel
	rec *recorder
}

func (c *tracedChannel) Call(ctx context.Context, req *giop.Message, requestID uint32) (*giop.Message, error) {
	start := now()
	reply, err := c.Channel.Call(ctx, req, requestID)
	s := span{layer: layerIIOP, id: svcctx.CallID(ctx), start: start, end: now(), in: giop.HeaderLen + len(req.Body), err: err != nil}
	if reply != nil {
		s.out = giop.HeaderLen + len(reply.Body)
	}
	c.rec.add(s)
	return reply, err
}

func (c *tracedChannel) Unusable() bool {
	u, ok := c.Channel.(interface{ Unusable() bool })
	return ok && u.Unusable()
}

func (c *tracedChannel) CallAsync(ctx context.Context, req *giop.Message, requestID uint32) (orb.PendingReply, error) {
	return c.Channel.(orb.AsyncChannel).CallAsync(ctx, req, requestID)
}

func (c *tracedChannel) SendOwned(ctx context.Context, req *giop.Message) error {
	return c.Channel.(orb.OnewayChannel).SendOwned(ctx, req)
}

// serverSpans is the iiop.Handler wrapper recording the orb.server span.
// The call ID is read from the request's SvcCallID service context
// before the ORB dispatches it.
type serverSpans struct {
	o   *orb.ORB
	rec *recorder
}

func (h serverSpans) HandleMessage(ctx context.Context, m *giop.Message) (*giop.Message, error) {
	if m.Header.Type != giop.MsgRequest {
		return h.o.HandleMessage(ctx, m)
	}
	id := requestCallID(m)
	start := now()
	reply, err := h.o.HandleMessage(ctx, m)
	h.rec.add(span{layer: layerORBServer, id: id, start: start, end: now(), err: err != nil})
	return reply, err
}

func requestCallID(m *giop.Message) string {
	var d cdr.Decoder
	m.ResetBodyDecoder(&d)
	var h giop.RequestHeader
	if err := giop.DecodeRequestInto(&d, m.Header.Version, &h); err != nil {
		return ""
	}
	return string(svcctx.ExtractBytes(h.ServiceContexts).CallID)
}

// servantFn is the signature of a ContextServantFunc body.
type servantFn = func(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error

// tracedServant wraps a servant body so each dispatch records a servant
// span; with a nil recorder it returns fn unchanged.
func tracedServant(rec *recorder, fn servantFn) servantFn {
	if rec == nil {
		return fn
	}
	return func(ctx context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
		start := now()
		err := fn(ctx, op, args, reply)
		rec.add(span{layer: layerServant, id: svcctx.CallID(ctx), start: start, end: now(), err: err != nil})
		return err
	}
}

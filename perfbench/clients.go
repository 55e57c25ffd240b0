package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/iiop"
	"corbalc/internal/orb"
	"corbalc/internal/svcctx"
)

// sample is one operation as the load generator saw it. Times are wall
// clock nanoseconds. In the closed loop due equals sent; in the paced
// phase due is the schedule slot and latency counts from it.
type sample struct {
	due, sent int64
	ret       int64 // when the call returned to the caller
	end       int64 // when the operation completed: ret, or event receipt
	bytes     int64 // application payload carried
	id        uint64
	caller    int
	ok        bool
}

// client runs one workload's requests against one SUT instance. Each
// caller c issues its own stream in order; do is never called
// concurrently for one caller.
type client interface {
	callers() int
	connect(ready readyMsg, rec *recorder) error
	// do performs caller c's next request, filling ret, end, bytes, id
	// and ok. sent and due are set by the caller.
	do(c int, s *sample)
	// settle completes samples whose outcome arrives after do returns.
	settle(samples [][]sample)
	// callID is the correlation ID caller c sent with request id.
	callID(c int, id uint64) string
	// close drops the client's connections and reports on its own ORB.
	close() clientReport
}

// clientReport is what a client saw on its side of the SUT.
type clientReport struct {
	sent, sentErrs uint64  // two-way requests its ORB sent, and failed
	batchMean      float64 // events per received push_batch
	reordered      uint64  // events that arrived after a later one
	errs           []string
}

// ---- gateway workloads: raw HTTP/1.1 keep-alive over loopback ----

// httpClient writes pre-encoded requests on one keep-alive connection per
// caller and byte-compares every reply body with the expected one, so
// neither request encoding nor an HTTP client library runs in the timed
// path.
type httpClient struct {
	streams []*httpStream
	addr    string
	conns   []*httpConn
	next    []int
	seq     []uint64
}

type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func newHTTPClient(streams []*httpStream) *httpClient {
	n := len(streams)
	return &httpClient{streams: streams, conns: make([]*httpConn, n), next: make([]int, n), seq: make([]uint64, n)}
}

func (d *httpClient) callers() int { return len(d.streams) }

func (d *httpClient) connect(ready readyMsg, _ *recorder) error {
	d.addr = ready.HTTP
	for c := range d.conns {
		if err := d.dial(c); err != nil {
			return err
		}
	}
	return nil
}

func (d *httpClient) dial(c int) error {
	conn, err := net.DialTimeout("tcp", d.addr, 5*time.Second)
	if err != nil {
		return err
	}
	d.conns[c] = &httpConn{c: conn, br: bufio.NewReaderSize(conn, 16<<10)}
	return nil
}

func (d *httpClient) callID(c int, id uint64) string { return fmt.Sprintf("c%d-%0*x", c, idDigits, id) }

func (d *httpClient) do(c int, s *sample) {
	st := d.streams[c]
	r := st.reqs[d.next[c]%len(st.reqs)]
	d.next[c]++
	d.seq[c]++
	s.id = d.seq[c]
	id := st.buf[r.idOff : r.idOff+idDigits]
	const hexd = "0123456789abcdef"
	for i, v := idDigits-1, s.id; i >= 0; i, v = i-1, v>>4 {
		id[i] = hexd[v&15]
	}
	s.bytes = int64(r.payload)
	body, err := d.roundTrip(c, st.buf[r.off:r.off+r.n])
	s.ret = now()
	s.end = s.ret
	if err != nil {
		if hc := d.conns[c]; hc != nil {
			hc.c.Close()
			d.conns[c] = nil
		}
		return
	}
	s.ok = bytes.Equal(body, st.exp[r.eoff:r.eoff+r.en])
}

var errStatus = errors.New("non-200 reply")

// roundTrip writes one request and reads its reply, returning the body
// of a 200 reply.
func (d *httpClient) roundTrip(c int, req []byte) ([]byte, error) {
	if d.conns[c] == nil {
		if err := d.dial(c); err != nil {
			return nil, err
		}
	}
	hc := d.conns[c]
	if _, err := hc.c.Write(req); err != nil {
		return nil, err
	}
	line, err := hc.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	ok := len(line) >= 12 && string(line[9:12]) == "200"
	n := -1
	for {
		line, err = hc.br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		if len(line) <= 2 {
			break
		}
		if len(line) > 16 && (line[0] == 'C' || line[0] == 'c') && bytes.EqualFold(line[:15], []byte("Content-Length:")) {
			if n, err = strconv.Atoi(string(bytes.TrimSpace(line[15:]))); err != nil {
				return nil, err
			}
		}
	}
	if n < 0 {
		return nil, errors.New("reply without Content-Length")
	}
	if cap(hc.body) < n {
		hc.body = make([]byte, n)
	}
	hc.body = hc.body[:n]
	if _, err := io.ReadFull(hc.br, hc.body); err != nil {
		return nil, err
	}
	if !ok {
		return hc.body, errStatus
	}
	return hc.body, nil
}

func (d *httpClient) settle([][]sample) {}

func (d *httpClient) close() clientReport {
	for c, hc := range d.conns {
		if hc != nil {
			hc.c.Close()
			d.conns[c] = nil
		}
	}
	return clientReport{}
}

// ---- iiop-direct: native ORB clients calling a two-way echo ----

type echoClient struct {
	streams []*echoStream
	o       *orb.ORB
	ref     *orb.ObjectRef
	next    []int
	seq     []uint64
}

func newEchoClient(streams []*echoStream) *echoClient {
	n := len(streams)
	return &echoClient{streams: streams, next: make([]int, n), seq: make([]uint64, n)}
}

func (d *echoClient) callers() int { return len(d.streams) }

// clientORB builds the load generator's own ORB, traced like the SUT's
// when rec is non-nil.
func clientORB(rec *recorder) *orb.ORB {
	o := orb.NewORB()
	o.RegisterTransport(transport(rec))
	if rec != nil {
		o.AddClientInterceptor(clientSpans{rec})
	}
	return o
}

func (d *echoClient) connect(ready readyMsg, rec *recorder) error {
	d.o = clientORB(rec)
	ref, err := d.o.ResolveStr(ready.Echo)
	if err != nil {
		return err
	}
	d.ref = ref
	return nil
}

func (d *echoClient) callID(c int, id uint64) string { return fmt.Sprintf("e%d-%x", c, id) }

func (d *echoClient) do(c int, s *sample) {
	st := d.streams[c]
	p := st.payloads[st.reqs[d.next[c]%len(st.reqs)]]
	d.next[c]++
	d.seq[c]++
	s.id = d.seq[c]
	s.bytes = 2 * int64(len(p))
	ctx := svcctx.WithCallID(context.Background(), d.callID(c, s.id))
	same := false
	err := d.ref.InvokeContext(ctx, "echo",
		func(e *cdr.Encoder) { e.WriteOctetSeq(p) },
		func(dec *cdr.Decoder) error {
			b, err := dec.ReadOctetSeqAlias()
			same = err == nil && bytes.Equal(b, p)
			return err
		})
	s.ret = now()
	s.end = s.ret
	s.ok = err == nil && same
}

func (d *echoClient) settle([][]sample) {}

func (d *echoClient) close() clientReport {
	if d.o == nil {
		return clientReport{}
	}
	d.o.Shutdown()
	return orbReport(d.o)
}

func orbReport(o *orb.ORB) clientReport {
	errs, _ := o.Stats().Errors()
	return clientReport{sent: o.RequestsSent(), sentErrs: errs}
}

// ---- events-push: two-way push in, push_batch oneways back out ----

// eventClient pushes the event stream into the SUT's event service and
// is itself the channel's remote batch subscriber: a sink object on its
// own ORB receives the push_batch oneways and checks that every event
// arrives exactly once with the pushed bytes, and that the events inside
// each batch are consecutive and ascending: the forwarder ships one
// drained run of a FIFO queue per batch. Order across batches is counted,
// not enforced: the node ships successive batches as SyncNone oneways
// over whichever pooled connection the forwarder's processor picks, and
// nothing orders frames across connections, so batches can overtake
// each other on the wire. That is a known defect of the node's remote
// subscription, reported as events.reordered. The in-process subscribers
// in the SUT check order strictly.
type eventClient struct {
	stream *eventStream
	o      *orb.ORB
	srv    *iiop.Server
	ref    *orb.ObjectRef
	buf    []byte
	pushed uint64 // next sequence number to push

	mu        sync.Mutex
	arrived   *sync.Cond
	recv      []int64 // receipt time by sequence number; 0 = not yet
	received  uint64
	maxSeen   uint64
	reordered uint64 // events that arrived after a later one
	batches   uint64
	bad       uint64 // duplicated or corrupted deliveries
	misorder  uint64 // batches whose events were not consecutive and ascending
}

func newEventClient(stream *eventStream) *eventClient {
	d := &eventClient{stream: stream, buf: make([]byte, 512)}
	d.arrived = sync.NewCond(&d.mu)
	return d
}

func (d *eventClient) callers() int { return 1 }

func (d *eventClient) callID(_ int, id uint64) string { return fmt.Sprintf("p-%x", id) }

func (d *eventClient) connect(ready readyMsg, rec *recorder) error {
	d.o = clientORB(rec)
	d.o.Activate("sink", orb.ContextServantFunc{RepoID: "IDL:corbalc/EventService:1.0", Fn: d.sink})
	// One dispatch worker keeps the sink's view of arrival order equal to
	// the order frames arrive on the wire.
	d.srv = iiop.NewServer(d.o)
	d.srv.MaxDispatch = 1
	if err := d.srv.ListenActivate(d.o, "127.0.0.1:0"); err != nil {
		return err
	}
	ref, err := d.o.ResolveStr(ready.Events)
	if err != nil {
		return err
	}
	d.ref = ref
	sinkIOR := d.o.NewIOR("IDL:corbalc/EventService:1.0", "sink")
	var subID string
	err = ref.InvokeContext(context.Background(), "subscribe",
		func(e *cdr.Encoder) {
			e.WriteString(eventType)
			sinkIOR.Marshal(e)
		},
		func(dec *cdr.Decoder) (err error) {
			subID, err = dec.ReadString()
			return err
		})
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	if subID == "" {
		return errors.New("subscribe returned no subscription id")
	}
	return nil
}

func (d *eventClient) sink(_ context.Context, op string, args *cdr.Decoder, _ *cdr.Encoder) error {
	if op != "push_batch" {
		return orb.BadOperation()
	}
	t := now()
	typeID, err := args.ReadString()
	if err != nil {
		return orb.Marshal()
	}
	n, err := args.ReadULong()
	if err != nil {
		return orb.Marshal()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.batches++
	var prev uint64
	ordered := true
	for i := uint32(0); i < n; i++ {
		source, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		data, err := args.ReadOctetSeqAlias()
		if err != nil {
			return orb.Marshal()
		}
		if typeID != eventType || source != eventSource || len(data) < 8 {
			d.bad++
			continue
		}
		seq := binary.BigEndian.Uint64(data)
		if i > 0 && seq != prev+1 {
			ordered = false
		}
		prev = seq
		if !d.stream.check(seq, data) || (seq < uint64(len(d.recv)) && d.recv[seq] != 0) {
			d.bad++
			continue
		}
		if seq < d.maxSeen {
			d.reordered++
		}
		d.maxSeen = max(d.maxSeen, seq)
		for uint64(len(d.recv)) <= seq {
			d.recv = append(d.recv, 0)
		}
		d.recv[seq] = t
		d.received++
	}
	if !ordered {
		d.misorder++
	}
	d.arrived.Broadcast()
	return nil
}

func (d *eventClient) do(_ int, s *sample) {
	seq := d.pushed
	d.pushed++
	s.id = seq
	data := d.stream.event(seq, d.buf)
	s.bytes = int64(len(data))
	ctx := svcctx.WithCallID(context.Background(), d.callID(0, seq))
	err := d.ref.InvokeContext(ctx, "push", func(e *cdr.Encoder) {
		e.WriteString(eventType)
		e.WriteString(eventSource)
		e.WriteOctetSeq(data)
	}, nil)
	s.ret = now()
	s.ok = err == nil
}

// settle waits until every pushed event has arrived at the sink (or a
// bounded drain time passes), then completes each sample at its receipt.
// An event that never arrives is a failed operation.
func (d *eventClient) settle(samples [][]sample) {
	deadline := time.Now().Add(3 * time.Second)
	timer := time.AfterFunc(3*time.Second, func() {
		d.mu.Lock()
		d.arrived.Broadcast()
		d.mu.Unlock()
	})
	defer timer.Stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.received+d.bad < d.pushed && time.Now().Before(deadline) {
		d.arrived.Wait()
	}
	for _, ss := range samples {
		for i := range ss {
			s := &ss[i]
			if !s.ok {
				continue
			}
			if s.id >= uint64(len(d.recv)) || d.recv[s.id] == 0 {
				s.ok = false
				continue
			}
			s.end = d.recv[s.id]
		}
	}
}

func (d *eventClient) close() clientReport {
	if d.o == nil {
		return clientReport{}
	}
	d.o.Shutdown()
	r := orbReport(d.o)
	if d.srv != nil {
		if err := d.srv.Close(); err != nil {
			r.errs = append(r.errs, "sink server close: "+err.Error())
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bad > 0 {
		r.errs = append(r.errs, fmt.Sprintf("%d events delivered twice or corrupted", d.bad))
	}
	if d.misorder > 0 {
		r.errs = append(r.errs, fmt.Sprintf("%d push_batch frames held events out of order", d.misorder))
	}
	r.reordered = d.reordered
	if d.batches > 0 {
		r.batchMean = float64(d.received) / float64(d.batches)
	}
	return r
}

package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"corbalc/internal/cdr"
	"corbalc/internal/events"
	"corbalc/internal/gateway"
	"corbalc/internal/idl"
	"corbalc/internal/iiop"
	"corbalc/internal/node"
	"corbalc/internal/orb"
)

// The SUT process is the system under test, assembled from the public
// constructors the shipped binaries use, with default options:
//
//   - a gateway (gateway.New + Handler behind an http.Server, as in
//     cmd/corbalc-gateway) whose ORB reaches the backend over iiop;
//   - a backend ORB serving bench::Store and bench::Echo through
//     iiop.ListenAndActivate on loopback;
//   - a node (node.New) whose event service channel has inProcSubs
//     in-process subscribers.
//
// It talks to the load generator over stdin/stdout, one JSON line per
// message: it prints readyMsg once serving, answers "mark" with a
// markMsg and "stop" with a sutReport (followed by its spans when
// traced), then exits. Nothing else may write to stdout.

const inProcSubs = 4

type readyMsg struct {
	HTTP       string `json:"http"`
	Echo       string `json:"echo"`
	Events     string `json:"events"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// markMsg is the SUT's resource counters at one phase boundary.
type markMsg struct {
	CPUNs  int64  `json:"cpu_ns"`
	AllocB uint64 `json:"alloc_b"`
	HeapB  uint64 `json:"heap_inuse_b"`
}

// sutReport is the SUT's final counters and shutdown checks.
type sutReport struct {
	GWRequests, GWHits, GWMisses, GWRejected uint64
	TransBufsLeaked                          int64

	GWSent, GWSentErrs      uint64 // the gateway's client ORB
	BackendServed, BackErrs uint64 // the backend ORB
	NodeServed, NodeSrvErrs uint64 // the node's ORB
	Published, Delivered    uint64 // the event channel
	Dropped                 uint64
	Subscribers             int
	InProcDelivered         []uint64
	InProcMisordered        uint64
	GoroutinesLeaked        int
	GCCPUFraction           float64
	SchedLatP99us           float64
	PeakRSSMB               float64
	Spans                   int
	Errors                  []string
}

type storeServant struct {
	mu   sync.Mutex
	recs map[int32]record
}

type record struct {
	name string
	vals []int32
}

func (s *storeServant) invoke(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	slot, err := args.ReadLong()
	if err != nil {
		return orb.Marshal()
	}
	switch op {
	case "get":
		reply.WriteLongLong(readValue(slot))
	case "touch":
		reply.WriteLong(slot + 1)
	case "put":
		name, err := args.ReadString()
		if err != nil {
			return orb.Marshal()
		}
		n, err := args.ReadULong()
		if err != nil || n > maxVals {
			return orb.Marshal()
		}
		vals := make([]int32, n)
		for i := range vals {
			if vals[i], err = args.ReadLong(); err != nil {
				return orb.Marshal()
			}
		}
		s.mu.Lock()
		s.recs[slot] = record{name, vals}
		s.mu.Unlock()
		reply.WriteLong(recordSum(name, vals))
	case "fetch":
		s.mu.Lock()
		rec, ok := s.recs[slot]
		s.mu.Unlock()
		if !ok {
			return orb.ObjectNotExist()
		}
		reply.WriteString(rec.name)
		reply.WriteULong(uint32(len(rec.vals)))
		for _, v := range rec.vals {
			reply.WriteLong(v)
		}
	default:
		return orb.BadOperation()
	}
	return nil
}

func echoInvoke(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
	if op != "echo" {
		return orb.BadOperation()
	}
	data, err := args.ReadOctetSeqAlias()
	if err != nil {
		return orb.Marshal()
	}
	reply.WriteOctetSeq(data)
	return nil
}

// inProcSub is one in-process event subscriber: it counts deliveries and
// checks that the single pusher's sequence numbers arrive in order.
type inProcSub struct {
	next       uint64
	delivered  atomic.Uint64
	misordered atomic.Uint64
}

func (s *inProcSub) consume(ev events.Event) {
	if len(ev.Data) < 8 {
		s.misordered.Add(1)
		return
	}
	seq := binary.BigEndian.Uint64(ev.Data)
	if seq != s.next {
		s.misordered.Add(1)
	}
	s.next = seq + 1
	s.delivered.Add(1)
}

// sut is one assembled system under test.
type sut struct {
	rec       *recorder
	httpSrv   *http.Server
	httpDone  chan error
	gwORB     *orb.ORB
	gw        *gateway.Gateway
	backend   *orb.ORB
	backSrv   *iiop.Server
	nodeORB   *orb.ORB
	node      *node.Node
	nodeSrv   *iiop.Server
	subs      []*inProcSub
	cancelSub []func()
}

// transport returns the client transport an ORB registers: the bare
// iiop.Transport, or its span-recording wrapper.
func transport(rec *recorder) orb.Transport {
	t := &iiop.Transport{}
	if rec == nil {
		return t
	}
	return tracedTransport{Transport: t, rec: rec}
}

// listen starts an iiop server for o, through the span-recording handler
// when traced.
func listen(o *orb.ORB, rec *recorder) (*iiop.Server, error) {
	if rec == nil {
		return iiop.ListenAndActivate(o, "127.0.0.1:0")
	}
	s := iiop.NewServer(serverSpans{o: o, rec: rec})
	if err := s.ListenActivate(o, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	return s, nil
}

func startSUT(rec *recorder) (*sut, readyMsg, error) {
	s := &sut{rec: rec}
	var ready readyMsg

	repo := idl.NewRepository()
	if err := repo.ParseString("bench.idl", benchIDL); err != nil {
		return nil, ready, err
	}

	s.backend = orb.NewORB()
	store := &storeServant{recs: make(map[int32]record)}
	s.backend.Activate("store", orb.ContextServantFunc{RepoID: storeRepoID, Fn: tracedServant(rec, store.invoke)})
	s.backend.Activate("echo", orb.ContextServantFunc{RepoID: echoRepoID, Fn: tracedServant(rec, echoInvoke)})
	var err error
	if s.backSrv, err = listen(s.backend, rec); err != nil {
		return nil, ready, err
	}
	// Mint after listening, so the IORs carry the bound endpoint.
	storeIOR := s.backend.NewIOR(storeRepoID, "store")
	echoIOR := s.backend.NewIOR(echoRepoID, "echo")

	s.gwORB = orb.NewORB()
	s.gwORB.RegisterTransport(transport(rec))
	if rec != nil {
		s.gwORB.AddClientInterceptor(clientSpans{rec})
	}
	if s.gw, err = gateway.New(gateway.Options{ORB: s.gwORB, Repo: repo}); err != nil {
		return nil, ready, err
	}
	if err := s.gw.RegisterIOR("store", storeIOR.String(), "bench::Store"); err != nil {
		return nil, ready, err
	}
	var h http.Handler = s.gw.Handler()
	if rec != nil {
		h = tracedHandler(rec, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, ready, err
	}
	s.httpSrv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.httpDone = make(chan error, 1)
	go func() { s.httpDone <- s.httpSrv.Serve(ln) }()

	s.nodeORB = orb.NewORB()
	s.nodeORB.RegisterTransport(transport(rec))
	s.node = node.New(node.Config{Name: "sut", ORB: s.nodeORB})
	if rec != nil {
		// Re-activate the node's event service behind the servant-span
		// wrapper; the key and servant are the node's own.
		es, ok := s.nodeORB.Adapter().Resolve([]byte(node.KeyEvents))
		if !ok {
			return nil, ready, errors.New("node has no event service")
		}
		s.nodeORB.Activate(node.KeyEvents, orb.ContextServantFunc{RepoID: node.EventServiceRepoID,
			Fn: tracedServant(rec, func(_ context.Context, op string, args *cdr.Decoder, reply *cdr.Encoder) error {
				return es.Invoke(op, args, reply)
			})})
	}
	if s.nodeSrv, err = listen(s.nodeORB, rec); err != nil {
		return nil, ready, err
	}
	ch := s.node.Hub().Channel(eventType)
	for i := 0; i < inProcSubs; i++ {
		sub := &inProcSub{}
		s.subs = append(s.subs, sub)
		s.cancelSub = append(s.cancelSub, ch.Subscribe(fmt.Sprintf("inproc-%d", i), sub.consume))
	}

	ready = readyMsg{
		HTTP:       ln.Addr().String(),
		Echo:       echoIOR.String(),
		Events:     s.node.EventsIOR().String(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	return s, ready, nil
}

// stop tears the SUT down in dependency order and fills the shutdown
// checks into rep.
func (s *sut) stop(rep *sutReport, baseGoroutines int) {
	fail := func(format string, args ...any) { rep.Errors = append(rep.Errors, fmt.Sprintf(format, args...)) }

	m := s.gw.Metrics()
	for _, rt := range m.Routes {
		for _, op := range rt.Ops {
			rep.GWRequests += op.Requests
			rep.GWHits += op.CacheHits
			rep.GWMisses += op.CacheMisses
		}
	}
	rep.GWRejected = m.Rejected
	ch := s.node.Hub().Channel(eventType)
	rep.Published, rep.Delivered, rep.Dropped = ch.Stats()
	rep.Subscribers = ch.SubscriberCount()
	for _, sub := range s.subs {
		rep.InProcDelivered = append(rep.InProcDelivered, sub.delivered.Load())
		rep.InProcMisordered += sub.misordered.Load()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		fail("http shutdown: %v", err)
	}
	if err := <-s.httpDone; !errors.Is(err, http.ErrServerClosed) {
		fail("http serve: %v", err)
	}
	s.gwORB.Shutdown()
	for _, c := range s.cancelSub {
		c()
	}
	s.node.Close()
	s.nodeORB.Shutdown()
	if err := s.nodeSrv.Close(); err != nil {
		fail("node server close: %v", err)
	}
	if err := s.backSrv.Close(); err != nil {
		fail("backend server close: %v", err)
	}
	s.backend.Shutdown()

	rep.TransBufsLeaked = gateway.TransBufsInFlight()
	if rep.TransBufsLeaked != 0 {
		fail("%d gateway TransBufs still in flight", rep.TransBufsLeaked)
	}
	rep.GWSent = s.gwORB.RequestsSent()
	rep.GWSentErrs, _ = s.gwORB.Stats().Errors()
	rep.BackendServed = s.backend.RequestsServed()
	_, rep.BackErrs = s.backend.Stats().Errors()
	rep.NodeServed = s.nodeORB.RequestsServed()
	_, rep.NodeSrvErrs = s.nodeORB.Stats().Errors()

	// Every goroutine the SUT started must end once it is torn down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	rep.GoroutinesLeaked = max(runtime.NumGoroutine()-baseGoroutines, 0)
	if rep.GoroutinesLeaked > 0 {
		fail("%d goroutines still running after shutdown", rep.GoroutinesLeaked)
	}
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func markNow() markMsg {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return markMsg{CPUNs: cpuNs(), AllocB: ms.TotalAlloc, HeapB: ms.HeapInuse}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// runtimeStats reads the GC's share of CPU time and the p99 of
// goroutine scheduling latency since process start.
func runtimeStats() (gcFrac, schedP99us float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		if total := samples[1].Value.Float64(); total > 0 {
			gcFrac = samples[0].Value.Float64() / total
		}
	}
	if samples[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := samples[2].Value.Float64Histogram()
		var n uint64
		for _, c := range h.Counts {
			n += c
		}
		want := uint64(float64(n) * 0.99)
		var acc uint64
		for i, c := range h.Counts {
			acc += c
			if acc > want {
				schedP99us = h.Buckets[i+1] * 1e6
				break
			}
		}
	}
	return gcFrac, schedP99us
}

// sutMain runs the SUT process until the load generator says stop or
// closes stdin.
func sutMain(traced bool) int {
	base := runtime.NumGoroutine()
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	s, ready, err := startSUT(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sut:", err)
		return 1
	}
	out := bufio.NewWriter(os.Stdout)
	send := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		out.Write(append(b, '\n'))
		out.Flush()
	}
	send(ready)

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch in.Text() {
		case "mark":
			send(markNow())
		case "stop":
			rep := sutReport{}
			rep.GCCPUFraction, rep.SchedLatP99us = runtimeStats()
			s.stop(&rep, base)
			rep.PeakRSSMB = peakRSSMB()
			var spans []span
			if rec != nil {
				spans = rec.take()
				rep.Spans = len(spans)
			}
			send(rep)
			if rec != nil {
				if err := writeSpans(out, spans); err != nil {
					fmt.Fprintln(os.Stderr, "sut:", err)
					return 1
				}
			}
			return 0
		}
	}
	// The load generator went away: tear down without reporting.
	s.stop(&sutReport{}, base)
	return 1
}

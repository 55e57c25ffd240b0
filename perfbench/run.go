package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sutProc is a running SUT process and its control pipe.
type sutProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// spawn starts the SUT as a child process (this executable, with
// sutEnv set) and waits for its ready line.
func spawn(traced bool) (*sutProc, readyMsg, error) {
	var ready readyMsg
	exe, err := os.Executable()
	if err != nil {
		return nil, ready, err
	}
	mode := "plain"
	if traced {
		mode = "traced"
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), sutEnv+"="+mode)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, ready, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, ready, err
	}
	if err := cmd.Start(); err != nil {
		return nil, ready, err
	}
	p := &sutProc{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<16)}
	live.Lock()
	live.procs[p] = true
	live.Unlock()
	if err := p.read(&ready); err != nil {
		p.kill()
		return nil, ready, fmt.Errorf("sut did not start: %w", err)
	}
	return p, ready, nil
}

func (p *sutProc) read(v any) error {
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

func (p *sutProc) mark() (markMsg, error) {
	var m markMsg
	if _, err := io.WriteString(p.in, "mark\n"); err != nil {
		return m, err
	}
	return m, p.read(&m)
}

// stop asks the SUT to shut down and returns its report and spans.
func (p *sutProc) stop(traced bool) (sutReport, []span, error) {
	var rep sutReport
	var spans []span
	err := func() error {
		if _, err := io.WriteString(p.in, "stop\n"); err != nil {
			return err
		}
		if err := p.read(&rep); err != nil {
			return err
		}
		if traced {
			var err error
			spans, err = readSpans(p.out)
			return err
		}
		return nil
	}()
	p.in.Close()
	if werr := p.cmd.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("sut exit: %w", werr)
	}
	p.forget()
	return rep, spans, err
}

func (p *sutProc) kill() {
	_ = p.cmd.Process.Kill()
	p.in.Close()
	_ = p.cmd.Wait()
	p.forget()
}

// live is the set of SUT processes not yet waited for.
var live = struct {
	sync.Mutex
	procs map[*sutProc]bool
}{procs: make(map[*sutProc]bool)}

func (p *sutProc) forget() {
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// watchdog ends a run that hangs: after d it kills every live SUT
// process, waits for them and exits with code 3, so a wedged SUT turns
// into a failed run rather than a run that never ends.
func watchdog(d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", d)
		live.Lock()
		for p := range live.procs {
			_ = p.cmd.Process.Kill()
			_ = p.cmd.Wait()
		}
		os.Exit(3)
	})
}

// instance is one SUT process with the client connected to it.
type instance struct {
	proc   *sutProc
	load   client
	ready  readyMsg
	traced bool
	rec    *recorder // the load generator's spans
	setup  float64   // seconds from process start to first correct reply
	seen   clientReport
}

// start launches a SUT and times it from process start until the first
// generated request is answered correctly.
func start(w *workload, traced bool) (*instance, error) {
	inst := &instance{load: w.newClient(), traced: traced}
	if traced {
		inst.rec = &recorder{}
	}
	t0 := time.Now()
	proc, ready, err := spawn(traced)
	if err != nil {
		return nil, err
	}
	inst.proc, inst.ready = proc, ready
	if err := inst.load.connect(ready, inst.rec); err != nil {
		inst.load.close()
		proc.kill()
		return nil, fmt.Errorf("connect: %w", err)
	}
	probe := [][]sample{{{}}}
	s := &probe[0][0]
	s.sent = now()
	s.due = s.sent
	inst.load.do(0, s)
	inst.load.settle(probe)
	if !s.ok {
		inst.load.close()
		proc.kill()
		return nil, errors.New("first request failed")
	}
	inst.setup = time.Since(t0).Seconds()
	return inst, nil
}

// finish closes the client, stops the SUT and applies the shutdown
// checks. It returns the SUT's report, its spans and every failed check.
func (inst *instance) finish(w *workload) (sutReport, []span, []string) {
	inst.seen = inst.load.close()
	sent, errs := inst.seen.sent, inst.seen.errs
	rep, spans, err := inst.proc.stop(inst.traced)
	if err != nil {
		return rep, nil, append(errs, "stopping sut: "+err.Error())
	}
	errs = append(errs, rep.Errors...)
	switch w.name {
	case "gw-read", "gw-write":
		if rep.GWSent != rep.BackendServed {
			errs = append(errs, fmt.Sprintf("gateway ORB sent %d requests but the backend served %d", rep.GWSent, rep.BackendServed))
		}
	case "iiop-direct":
		if sent != rep.BackendServed {
			errs = append(errs, fmt.Sprintf("client ORB sent %d requests but the backend served %d", sent, rep.BackendServed))
		}
	case "events-push":
		if sent != rep.NodeServed {
			errs = append(errs, fmt.Sprintf("client ORB sent %d requests but the node served %d", sent, rep.NodeServed))
		}
		if rep.Dropped != 0 || rep.InProcMisordered != 0 {
			errs = append(errs, fmt.Sprintf("event channel dropped %d, in-process subscribers saw %d out of order", rep.Dropped, rep.InProcMisordered))
		}
		for i, n := range rep.InProcDelivered {
			if n != rep.Published {
				errs = append(errs, fmt.Sprintf("in-process subscriber %d got %d of %d events", i, n, rep.Published))
			}
		}
	}
	return rep, spans, errs
}

// closedLoop runs every caller back to back from t0 for dur: each sends
// its next request as soon as the previous reply is in.
func closedLoop(d client, t0 int64, dur time.Duration) [][]sample {
	out := make([][]sample, d.callers())
	end := t0 + int64(dur)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ss := make([]sample, 0, 4096)
			for t := now(); t < end; t = now() {
				s := sample{due: t, sent: t, caller: c}
				d.do(c, &s)
				ss = append(ss, s)
			}
			out[c] = ss
		}()
	}
	wg.Wait()
	d.settle(out)
	return out
}

// pacedLoop sends requests on a fixed schedule of rate per second for
// dur, whatever the replies do. A request is due at its slot; if every
// caller is busy it goes late, and its latency still counts from the
// slot.
func pacedLoop(d client, t0 int64, dur time.Duration, rate float64) [][]sample {
	out := make([][]sample, d.callers())
	interval := 1e9 / rate
	total := int64(dur.Seconds() * rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ss []sample
			for {
				k := next.Add(1) - 1
				if k >= total {
					break
				}
				due := t0 + int64(float64(k)*interval)
				sleepUntil(due)
				s := sample{due: due, sent: now(), caller: c}
				d.do(c, &s)
				ss = append(ss, s)
			}
			out[c] = ss
		}()
	}
	wg.Wait()
	d.settle(out)
	return out
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer sleeps a whole millisecond when the process is otherwise idle,
// which would swamp a schedule with slots a few hundred µs apart.
func sleepUntil(t int64) {
	for wait := t - now(); wait > 0; wait = t - now() {
		ts := syscall.NsecToTimespec(wait)
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

func flatten(parts [][]sample) []sample {
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// latencies returns each sample's latency in µs from its due time;
// failed operations count as +Inf.
func latencies(ss []sample) []float64 {
	l := make([]float64, len(ss))
	for i, s := range ss {
		if s.ok {
			l[i] = float64(s.end-s.due) / 1e3
		} else {
			l[i] = math.Inf(1)
		}
	}
	sort.Float64s(l)
	return l
}

// phase is one measured stretch of load: its samples, and the share of
// CPU time the hypervisor stole from this machine in each of its
// windows.
type phase struct {
	t0    int64
	dur   time.Duration
	ss    []sample
	steal []float64
}

// windowLen is the length of the windows a phase is split into.
const windowLen = 500 * time.Millisecond

// closed is closedLoop as a phase's load.
func closed(d client) func(int64, time.Duration) [][]sample {
	return func(t0 int64, dur time.Duration) [][]sample { return closedLoop(d, t0, dur) }
}

// runPhase runs load from now for dur, reading the host's CPU counters at
// every window boundary meanwhile.
func runPhase(dur time.Duration, load func(t0 int64, dur time.Duration) [][]sample) phase {
	n := max(int(dur/windowLen), 1)
	p := phase{t0: now() + int64(time.Millisecond), dur: dur, steal: make([]float64, n)}
	ticks := make([]hostCPU, n+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := range ticks {
			sleepUntil(p.t0 + int64(k)*int64(dur)/int64(n))
			ticks[k] = hostTicks()
		}
	}()
	p.ss = flatten(load(p.t0, dur))
	<-done
	for k := range p.steal {
		if total := ticks[k+1].total - ticks[k].total; total > 0 {
			p.steal[k] = float64(ticks[k+1].steal-ticks[k].steal) / float64(total)
		}
	}
	return p
}

// windowStats is a phase's throughput, payload rate, p50 and tail
// latency: per window, then the median across the cleaner half of the
// windows — those whose steal share is at most the median window's.
//
// This machine is a virtual CPU on a shared host. When the hypervisor
// runs other guests, this guest's wall-clock figures drop by up to half
// for seconds at a time while its CPU cost per operation does not move.
// /proc/stat counts that stolen time, so windows the host disturbed can
// be left out; the cleaner half is used, not a fixed threshold, so a run
// on a busy host still reports.
type windowStats struct {
	opsS, mbS, p50, p99, q99 float64
	used, windows            int
	steal                    float64 // mean steal share over the whole phase
}

func (p phase) stats() windowStats {
	n := len(p.steal)
	wins := make([][]sample, n)
	for _, s := range p.ss {
		i := int(float64(s.due-p.t0) / float64(p.dur) * float64(n))
		if i >= 0 && i < n {
			wins[i] = append(wins[i], s)
		}
	}
	limit := quantile(sorted(p.steal), 0.5)
	secs := p.dur.Seconds() / float64(n)
	var ops, mbs, p50s, p99s, qs []float64
	for i, w := range wins {
		if p.steal[i] > limit || len(w) == 0 {
			continue
		}
		var ok, bytes float64
		for _, s := range w {
			if s.ok {
				ok++
				bytes += float64(s.bytes)
			}
		}
		ops = append(ops, ok/secs)
		mbs = append(mbs, bytes/secs/(1<<20))
		l := latencies(w)
		p50s = append(p50s, quantile(l, 0.5))
		q, v := tail(l, 0.99)
		p99s = append(p99s, v)
		qs = append(qs, q)
	}
	return windowStats{opsS: median(ops), mbS: median(mbs), p50: median(p50s), p99: median(p99s), q99: median(qs),
		used: len(ops), windows: n, steal: mean(p.steal)}
}

// runResult is one workload run's outcome.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	detail    map[string]any
	errs      []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite keeps a +Inf latency (a failed operation at the percentile)
// printable as JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e12
	}
	return v
}

func countFailed(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

// setupRuns is how many SUT processes an untraced run starts; setup_s
// is the median of their set-up times.
const setupRuns = 15

// runPlain is the untraced run behind the end-to-end metrics.
func runPlain(w *workload, secs float64) (*runResult, error) {
	res := &runResult{Metrics: map[string]metric{}, detail: map[string]any{}}
	var setups []float64
	var inst *instance
	for k := 0; k < setupRuns; k++ {
		i, err := start(w, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, i.setup)
		if k < setupRuns-1 {
			_, _, errs := i.finish(w)
			res.errs = append(res.errs, errs...)
			continue
		}
		inst = i
	}
	d := inst.load
	sec := func(f float64) time.Duration { return time.Duration(f * secs * float64(time.Second)) }

	warm := flatten(closedLoop(d, now(), sec(0.1)))
	m0, err := inst.proc.mark()
	if err != nil {
		inst.proc.kill()
		return nil, err
	}
	cpu0 := cpuNs()
	closedP := runPhase(sec(0.6), closed(d))
	pacedP := runPhase(sec(0.3), func(t0 int64, dur time.Duration) [][]sample {
		return pacedLoop(d, t0, dur, w.pacedRate)
	})
	cpu1 := cpuNs()
	m1, err := inst.proc.mark()
	if err != nil {
		inst.proc.kill()
		return nil, err
	}
	rep, _, errs := inst.finish(w)
	res.errs = append(res.errs, errs...)

	ws, pw := closedP.stats(), pacedP.stats()
	paced := pacedP.ss
	measured := append(closedP.ss, paced...)
	okOps := float64(len(measured) - countFailed(measured))
	res.Attempted = len(warm) + len(measured)
	res.Failed = countFailed(warm) + countFailed(measured)

	set := func(name, unit string, v float64) { res.Metrics[name] = metric{finite(v), unit} }
	set("setup_s", "s", median(setups))
	set("ops_s", "ops/s", ws.opsS)
	set("p50_us", "us", ws.p50)
	set("cpu_us_per_op", "us", float64(m1.CPUNs-m0.CPUNs)/1e3/max(okOps, 1))
	set("peak_rss_mb", "MiB", rep.PeakRSSMB)
	set("payload_mb_s", "MiB/s", ws.mbS)

	// Reported but not bounded in BENCHMARK.json: on a shared virtual
	// host their run-to-run spread exceeds any bound the benchmark may
	// set (see CHANGES.md).
	res.detail["p99_us"] = finite(ws.p99)
	res.detail["paced_p99_us"] = finite(pw.p99)
	res.detail["error_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.detail["closed_samples"] = len(closedP.ss)
	res.detail["closed_windows_used"] = fmt.Sprintf("%d/%d", ws.used, ws.windows)
	res.detail["paced_windows_used"] = fmt.Sprintf("%d/%d", pw.used, pw.windows)
	res.detail["host_steal_share"] = (ws.steal*2 + pw.steal) / 3
	res.detail["p99_quantile_used"] = ws.q99
	res.detail["paced_rate"] = w.pacedRate
	res.detail["paced_samples"] = len(paced)
	res.detail["paced_quantile_used"] = pw.q99
	var late []float64
	for _, s := range paced {
		late = append(late, float64(s.sent-s.due)/1e3)
	}
	res.detail["paced_late_p50_us"] = p50(late)
	res.detail["paced_late_p99_us"] = p99(late)
	res.detail["paced_p50_us"] = pw.p50
	res.detail["setup_s_all"] = setups
	res.detail["loadgen_cpu_us_per_op"] = float64(cpu1-cpu0) / 1e3 / max(okOps, 1)
	res.detail["sut_gomaxprocs"] = inst.ready.GoMaxProcs
	return res, nil
}

// hostCPU is the machine-wide CPU time from /proc/stat, in ticks.
type hostCPU struct{ total, steal uint64 }

// hostTicks reads it. A virtual machine's steal share says how much CPU
// the hypervisor gave to others during a run; runs with much steal are
// measuring the host as well as the program.
func hostTicks() hostCPU {
	var h hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// runTraced is the traced run behind the per-layer metrics. It first
// measures closed-loop throughput on an untraced SUT, then repeats the
// run with every layer wrapped, so the cost of tracing shows as
// trace.overhead_ratio.
func runTraced(w *workload, secs float64) (*runResult, error) {
	res := &runResult{Metrics: map[string]metric{}, detail: map[string]any{}}
	sec := func(f float64) time.Duration { return time.Duration(f * secs * float64(time.Second)) }

	plain, err := start(w, false)
	if err != nil {
		return nil, err
	}
	warm := flatten(closedLoop(plain.load, now(), sec(0.1)))
	m0, err := plain.proc.mark()
	if err != nil {
		plain.proc.kill()
		return nil, err
	}
	baseP := runPhase(sec(0.3), closed(plain.load))
	base := baseP.ss
	m1, err := plain.proc.mark()
	if err != nil {
		plain.proc.kill()
		return nil, err
	}
	allocPerOp := float64(m1.AllocB-m0.AllocB) / max(float64(len(base)-countFailed(base)), 1)
	plainRep, _, errs := plain.finish(w)
	res.errs = append(res.errs, errs...)
	baseOps := baseP.stats().opsS

	inst, err := start(w, true)
	if err != nil {
		return nil, err
	}
	d := inst.load
	warm = append(warm, flatten(closedLoop(d, now(), sec(0.1)))...)
	cpu0 := cpuNs()
	tracedP := runPhase(sec(0.3), closed(d))
	paced := flatten(pacedLoop(d, now(), sec(0.2), w.pacedRate))
	cpu1 := cpuNs()
	rep, sutSpans, errs := inst.finish(w)
	res.errs = append(res.errs, errs...)
	tracedOps := tracedP.stats().opsS

	measured := append(tracedP.ss, paced...)
	res.Attempted = len(warm) + len(base) + len(measured)
	res.Failed = countFailed(warm) + countFailed(base) + countFailed(measured)
	okOps := float64(len(measured) - countFailed(measured))

	spans := append(sutSpans, inst.rec.take()...)
	var lags, pushCalls, late []float64
	for _, s := range measured {
		spans = append(spans, span{layer: layerRequest, id: d.callID(s.caller, s.id), start: s.sent, end: s.ret})
		if s.ok && w.name == "events-push" {
			lags = append(lags, float64(s.end-s.ret)/1e3)
			pushCalls = append(pushCalls, float64(s.ret-s.sent)/1e3)
		}
	}
	for _, s := range paced {
		late = append(late, float64(s.sent-s.due)/1e3)
	}
	l := buildLedger(spans)

	set := func(name, unit string, v float64) { res.Metrics[name] = metric{finite(v), unit} }
	set("http.edge_p50_us", "us", p50(l.httpEdge))
	set("http.edge_p99_us", "us", p99(l.httpEdge))
	set("gateway.requests", "count", float64(rep.GWRequests))
	set("gateway.serve_p50_us", "us", p50(l.gwServe))
	set("gateway.serve_p99_us", "us", p99(l.gwServe))
	set("gateway.self_p50_us", "us", p50(l.gwSelf))
	set("gateway.self_p99_us", "us", p99(l.gwSelf))
	hitRatio, backendPerReq := 0.0, 0.0
	if rep.GWRequests > 0 {
		backendPerReq = float64(rep.GWRequests-rep.GWHits) / float64(rep.GWRequests)
	}
	if lookups := rep.GWHits + rep.GWMisses; lookups > 0 {
		hitRatio = float64(rep.GWHits) / float64(lookups)
	}
	set("gateway.hit_ratio", "ratio", hitRatio)
	set("gateway.backend_calls_per_req", "ratio", backendPerReq)
	set("gateway.rejected", "count", float64(rep.GWRejected))
	set("gateway.transbufs_leaked", "count", float64(rep.TransBufsLeaked))

	orbSent, orbErrs := rep.GWSent, rep.GWSentErrs
	srvServed, srvErrs := rep.BackendServed, rep.BackErrs
	switch w.name {
	case "iiop-direct", "events-push":
		orbSent, orbErrs = inst.seen.sent, inst.seen.sentErrs
	}
	if w.name == "events-push" {
		srvServed, srvErrs = rep.NodeServed, rep.NodeSrvErrs
	}
	set("orb.client_self_p50_us", "us", p50(l.clientSelf))
	set("orb.requests_sent", "count", float64(orbSent))
	set("orb.client_errors", "count", float64(orbErrs))
	set("iiop.call_p50_us", "us", p50(l.iiopCall))
	set("iiop.call_p99_us", "us", p99(l.iiopCall))
	set("iiop.wire_p50_us", "us", p50(l.iiopWire))
	set("iiop.wire_p99_us", "us", p99(l.iiopWire))
	set("iiop.req_bytes_per_call", "B", meanOr0(l.reqBytes))
	set("iiop.reply_bytes_per_call", "B", meanOr0(l.replyBytes))
	fragShare := 0.0
	if len(l.iiopCall) > 0 {
		fragShare = float64(l.fragmented) / float64(len(l.iiopCall))
	}
	set("iiop.fragmented_share", "ratio", fragShare)
	set("orb.server_p50_us", "us", p50(l.server))
	set("orb.server_self_p50_us", "us", p50(l.serverSelf))
	set("orb.server_self_p99_us", "us", p99(l.serverSelf))
	set("orb.requests_served", "count", float64(srvServed))
	set("orb.server_errors", "count", float64(srvErrs))
	set("servant.p50_us", "us", p50(l.servant))

	delivered, batchMean := 0.0, 0.0
	if w.name == "events-push" {
		if want := float64(rep.Published) * float64(rep.Subscribers); want > 0 {
			delivered = float64(rep.Delivered) / want
		}
		batchMean = inst.seen.batchMean
	}
	set("events.published", "count", float64(rep.Published))
	set("events.delivered_ratio", "ratio", delivered)
	set("events.dropped", "count", float64(rep.Dropped))
	set("events.batch_mean", "count", batchMean)
	set("events.reordered", "count", float64(inst.seen.reordered))
	set("events.push_call_p50_us", "us", p50(pushCalls))
	set("events.lag_p99_us", "us", p99(lags))

	// The runtime figures come from the untraced SUT: the traced one
	// holds every span in memory until it exits.
	set("runtime.gc_cpu_fraction", "ratio", plainRep.GCCPUFraction)
	set("runtime.sched_lat_p99_us", "us", plainRep.SchedLatP99us)
	set("runtime.heap_inuse_mb", "MiB", float64(m1.HeapB)/(1<<20))
	set("runtime.alloc_b_per_op", "B", allocPerOp)
	set("runtime.goroutines_leaked", "count", float64(max(plainRep.GoroutinesLeaked, rep.GoroutinesLeaked)))

	set("loadgen.samples", "count", float64(len(measured)))
	set("loadgen.late_p99_us", "us", p99(late))
	set("loadgen.cpu_us_per_op", "us", float64(cpu1-cpu0)/1e3/max(okOps, 1))

	overhead := 0.0
	if baseOps > 0 {
		overhead = tracedOps / baseOps
	}
	set("trace.overhead_ratio", "ratio", overhead)
	set("trace.residue_ratio", "ratio", l.residue())

	res.detail["joined_calls"] = l.calls
	res.detail["sut_gomaxprocs"] = inst.ready.GoMaxProcs
	res.detail["sut_spans"] = rep.Spans
	res.detail["residue_bound"] = plan.ResidueBound
	if r := l.residue(); r > plan.ResidueBound {
		res.errs = append(res.errs, fmt.Sprintf("trace residue %.3f exceeds its bound %.2f", r, plan.ResidueBound))
	}
	res.errs = append(res.errs, missingLayers(w.name, res.Metrics)...)
	return res, nil
}

// missingLayers reports the per-layer metrics plan.json requires to be
// non-zero on workload but that read 0 or less. A layer whose wrapper
// stops recording would otherwise report 0, and its time would move into
// the nearest layer above without changing the residue.
func missingLayers(workload string, m map[string]metric) []string {
	var errs []string
	for _, g := range plan.NonZero {
		if !slices.Contains(g.Workloads, workload) {
			continue
		}
		for _, name := range g.Metrics {
			if m[name].Value <= 0 {
				errs = append(errs, fmt.Sprintf("%s is %v on %s: its layer recorded nothing", name, m[name].Value, workload))
			}
		}
	}
	return errs
}

func hostMeta(seed int64) map[string]any {
	return map[string]any{
		"nproc":              runtime.NumCPU(),
		"loadgen_gomaxprocs": runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"commit":             commit(),
		"seed":               seed,
		"held_out_seed":      plan.HeldOutSeed,
		"loopback":           true,
	}
}

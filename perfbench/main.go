// Command perfbench is corbalc's loopback benchmark. It runs one
// workload against a system-under-test (SUT) process it starts itself —
// gateway, backend ORB and event-service node, built from the shipped
// constructors — and drives it from this single load-generator process
// with at most nproc callers.
//
//	perfbench --workload gw-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 it prints the per-layer ledger of a traced run. The last
// line of standard output is the result as JSON; the line before it
// holds host and run metadata and the figures BENCHMARK.json does not
// bound, among them p99_us, paced_p99_us and error_ratio. It exits
// non-zero when any reply is wrong, any operation fails, or a shutdown
// check finds a leak. --workload all runs every workload in turn.
//
// run.py builds this program from source and runs it.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// sutEnv, when set in the environment, makes this executable the SUT
// process ("plain" or "traced") instead of the load generator.
const sutEnv = "PERFBENCH_SUT"

//go:embed plan.json
var planJSON []byte

// plan holds the benchmark's fixed settings that BENCHMARK.json has no
// field for: each workload's paced rate (about half the closed-loop
// ops_s measured on a 2-vCPU host), the trace residue bound, the
// per-layer metrics a traced run must report as non-zero on each
// workload that exercises their layer, and a seed kept out of tuning for
// held-out checks.
var plan struct {
	HeldOutSeed  int64   `json:"held_out_seed"`
	ResidueBound float64 `json:"residue_bound"`
	NonZero      []struct {
		Workloads []string `json:"workloads"`
		Metrics   []string `json:"metrics"`
	} `json:"nonzero"`
	Workloads map[string]struct {
		PacedRate float64 `json:"paced_rate"`
	} `json:"workloads"`
}

func init() {
	if err := json.Unmarshal(planJSON, &plan); err != nil {
		panic("plan.json: " + err.Error())
	}
}

// workload is one traffic mix.
type workload struct {
	name      string
	pacedRate float64 // requests per second in the open-loop phase
	newClient func() client
}

// callers is the closed-loop concurrency: one caller per CPU, capped so
// the pre-generated streams stay small.
func callers() int { return min(runtime.NumCPU(), 8) }

// workloadFor pre-generates every input of the named workload from seed.
func workloadFor(name string, seed int64) (*workload, error) {
	p, ok := plan.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w := &workload{name: name, pacedRate: p.PacedRate}
	n := callers()
	switch name {
	case "gw-read", "gw-write":
		streams := make([]*httpStream, n)
		for c := range streams {
			if name == "gw-read" {
				streams[c] = genRead(seed, c, streamRead)
			} else {
				streams[c] = genWrite(seed, c, streamWrite)
			}
		}
		w.newClient = func() client { return newHTTPClient(streams) }
	case "iiop-direct":
		payloads := echoPayloads(seed)
		streams := make([]*echoStream, n)
		for c := range streams {
			streams[c] = genEcho(seed, c, streamEcho, payloads)
		}
		w.newClient = func() client { return newEchoClient(streams) }
	case "events-push":
		stream := genEvents(seed, streamEvent)
		w.newClient = func() client { return newEventClient(stream) }
	}
	return w, nil
}

func workloadNames() []string {
	var names []string
	for n := range plan.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	if mode := os.Getenv(sutEnv); mode != "" {
		os.Exit(sutMain(mode == "traced"))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	secs := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	code := 0
	for _, n := range names {
		if c := runOne(n, *seed, *secs, *trace == 1); c != 0 {
			code = c
		}
	}
	return code
}

func runOne(name string, seed int64, secs float64, traced bool) int {
	w, err := workloadFor(name, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// A run takes about secs plus a few seconds of set-up; anything far
	// beyond that is a hang.
	defer watchdog(time.Duration(3*secs)*time.Second + 90*time.Second).Stop()
	var res *runResult
	if traced {
		res, err = runTraced(w, secs)
	} else {
		res, err = runPlain(w, secs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	res.Correct = res.Failed == 0 && len(res.errs) == 0
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, e)
	}
	meta := hostMeta(seed)
	meta["workload"] = name
	meta["seconds"] = secs
	meta["trace"] = traced
	meta["sut_gomaxprocs"] = res.detail["sut_gomaxprocs"]
	delete(res.detail, "sut_gomaxprocs")
	info, err := json.Marshal(map[string]any{"meta": meta, "detail": res.detail, "errors": res.errs})
	if err != nil {
		panic(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s\n%s\n", info, out)
	if !res.Correct {
		return 1
	}
	return 0
}

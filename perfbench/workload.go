package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/workload"
)

// spec is one benchmark workload: a server configuration plus a traffic
// mix. Every workload runs the event and freshness probes, so every
// end-to-end metric is measured on each of them.
type spec struct {
	name string
	// entities is the subscriber population, all preloaded during set-up.
	entities uint64
	// rate is the open-loop event rate in events/s; 0 sends as fast as
	// client backpressure allows (closed by the ESP queue).
	rate float64
	// zipf draws callers from Zipf(1.2) (hot subscribers) instead of
	// uniformly.
	zipf bool
	// clients is the number of closed-loop Q1–Q7 clients; think is the
	// pause between one client's queries.
	clients int
	think   time.Duration
	// durable runs the server with a WAL (fsync off) and background
	// checkpoints every ckptEvery.
	durable bool
	// tiered runs the server with the compressed cold tier at its default
	// aging threshold.
	tiered bool
}

// Fixed for every workload so results do not depend on the host's core
// count: 2 partitions (scan threads) and 1 ESP thread per server.
const (
	partitions = 2
	espThreads = 1
	ruleCount  = workload.DefaultRuleCount
	ckptEvery  = 5 * time.Second
	// A sync event holds the server's read loop of its connection, which
	// also carries the stream, until the ESP thread has applied it. At a
	// combined sync rate r, a round trip above 1/r makes the probes queue
	// on the connection without bound, and the stream behind them. Event
	// and freshness probes together send 120/s, so that collapse needs an
	// 8 ms round trip, four times the usual; at 340/s a few percent of CPU
	// stolen by the hypervisor was enough.
	//
	// eventProbeRate gives thousands of sync probes in a 20 s window, so
	// the p99 has 20 samples beyond it, twice the minimum ten, and every
	// one-second sub-window has 100 for its median.
	eventProbeRate = 100
	// freshProbeRate gives hundreds of freshness probes in a 20 s window
	// (p95 has 20 samples beyond it) while leaving most scan capacity to
	// the clients.
	freshProbeRate = 20
	// satWindow bounds the events a saturating stream has in flight: it
	// flushes after every satWindow events. Without it the stream fills the
	// socket buffers and ESP queue, and a probe waits behind seconds of
	// backlog that grows for the whole run.
	satWindow = 4096
)

// Reserved entity ranges. No stream event touches them, so each probe
// entity's history is exactly the probe events sent to it, in send order.
const (
	eventProbeBase     = 1 << 40 // event probes cycle over eventProbeEntities ids above this
	eventProbeEntities = 1024
	freshBase          = 2 << 40 // one new entity per freshness probe
	fenceBase          = 3 << 40 // one fence entity per partition at the end of a run
)

// The workloads and why each exists are described in README.md. The
// paper-mix clients pause 2 ms between queries: on a 2-CPU host, without
// the pause a few percent of CPU lost to the hypervisor starves the single
// ESP thread and the run flips into an ESP backlog that grows for the rest
// of the window.
var specs = []spec{
	{
		name:     "paper-mix",
		entities: 20_000, rate: 10_000, clients: 2, think: 2 * time.Millisecond, durable: true,
	},
	{
		name:     "ingest-sat",
		entities: 20_000, rate: 0, zipf: true, clients: 1, think: 2 * time.Millisecond, durable: true,
	},
	{
		name:     "scan-large",
		entities: 60_000, rate: 1_000, zipf: true, clients: 2,
	},
	{
		name:     "scan-tiered",
		entities: 60_000, rate: 1_000, zipf: true, clients: 2, tiered: true,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// serverArgs are the aimserver flags for a workload.
func (s spec) serverArgs(seed int64) []string {
	args := []string{
		"-partitions", strconv.Itoa(partitions),
		"-esp", strconv.Itoa(espThreads),
		"-rules", strconv.Itoa(ruleCount),
		"-seed", strconv.FormatInt(seed, 10),
	}
	if s.durable {
		args = append(args, "-fsync=false", "-checkpoint-every", ckptEvery.String())
	}
	if s.tiered {
		args = append(args, "-bucket-freeze", "-cold-after", strconv.Itoa(core.DefaultColdAfterEpochs))
	}
	return args
}

// callers draws stream callers for a workload.
type callers struct {
	gen  *event.Generator
	zipf *rand.Zipf
}

func newCallers(s spec, seed int64) *callers {
	c := &callers{gen: event.NewGenerator(s.entities, seed)}
	if s.zipf {
		c.zipf = rand.NewZipf(rand.New(rand.NewSource(seed^0x5eed)), 1.2, 1, s.entities-1)
	}
	return c
}

func (c *callers) next(ev *event.Event) {
	c.gen.Next(ev)
	if c.zipf != nil {
		ev.Caller = 1 + c.zipf.Uint64()
	}
}

// partitionOf mirrors the storage node's entity -> partition hash, so the
// benchmark can place one fence entity in every partition.
func partitionOf(entity uint64, n int) int {
	return int(((entity * 0x9E3779B97F4A7C15) >> 32) % uint64(n))
}

// fenceEntities returns one reserved entity per partition.
func fenceEntities(n int) []uint64 {
	out := make([]uint64, n)
	found := 0
	seen := make([]bool, n)
	for id := uint64(fenceBase + 1); found < n; id++ {
		if p := partitionOf(id, n); !seen[p] {
			seen[p] = true
			out[p] = id
			found++
		}
	}
	return out
}

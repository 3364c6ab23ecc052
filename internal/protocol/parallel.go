// Conservative parallel execution of one session (Config.SimWorkers ≥ 2):
// a Chandy–Misra–Bryant-style windowed runner over tree shards.
//
// The multicast tree is partitioned into K contiguous preorder bands of
// routers, hosts riding with their access router (mtree.PartitionTree). Each
// shard gets its own event engine, network instance, and protocol-engine
// clone; a host's events execute only on its owner shard. Cross-shard
// packets are the only coupling: a path from one shard to another crosses at
// least one cut link, so a remote delivery arrives no earlier than its send
// time plus the partition lookahead Δ. The runner therefore alternates
//
//	ingest:  hand every outbox delivery to its owner shard
//	window:  each shard executes all events in [T0, T0+Δ)
//
// where T0 is the earliest pending instant anywhere. Every event executed in
// a window was already present — with its final timestamp — when the window
// opened, because anything a remote shard might still produce lands at or
// past the horizon. Barriers between phases make the shared reads
// (fault-state lookups, the oracle's sent vector, sentAt) race-free.
//
// Bit-identity with the serial engine holds because, in the configurations
// the runner accepts, the only rng consumer during a run is the data-plane
// loss stream — and data floods execute entirely on the source's shard,
// which owns the exact netRand stream the serial run would use (the
// remaining streams are re-derived in the serial split order, plus one
// rng.SplitN stream per shard for future shard-local draws). Everything
// else is a pure function of event times, which the window protocol
// preserves; order-dependent accumulators (Welford latency) are replayed in
// global time order when the shards fold back into the root session, which
// then finishes the run through the same path as a serial run.
// Configurations outside that envelope — queueing, jitter, lossy recovery,
// gap/session detection, burst or mutation faults, tracing hooks, engines
// without CloneForShard — fall back to the serial path, which stays
// byte-for-byte untouched.
package protocol

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rmcast/internal/core"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/sim"
)

// ShardCloner is implemented by protocol engines that can run partitioned:
// CloneForShard returns a fresh engine sharing this (already attached)
// engine's immutable plans, to be attached to one shard's sub-session. A nil
// return means the engine's current options cannot be sharded (e.g. a
// run-time replanning layer), forcing the serial fallback.
type ShardCloner interface {
	Engine
	CloneForShard() Engine
}

// shardCount fixes K as a pure function of the group size — never of the
// worker count — so results are invariant under SimWorkers by construction:
// any worker count simulates the same K logical shards.
func shardCount(clients int) int {
	k := clients / 8
	if k > 8 {
		k = 8
	}
	if k < 2 {
		k = 2
	}
	return k
}

// minParallelClients is the smallest group worth partitioning (below it the
// window overhead dwarfs the work).
const minParallelClients = 16

// planParallel is the one place that decides whether Run shards. Inside the
// parallel runner's exactness envelope (see the package comment) it returns
// the partition and one fresh engine clone per shard; otherwise nils plus a
// human-readable reason, which Result.SerialReason surfaces so callers stop
// guessing why a -simworkers run stayed serial.
func (s *Session) planParallel() ([]Engine, *mtree.Partition, string) {
	if s.cfg.SimWorkers < 2 {
		return nil, nil, ""
	}
	cloner, ok := s.engine.(ShardCloner)
	if !ok {
		return nil, nil, fmt.Sprintf("engine %s cannot be sharded (no CloneForShard)", s.engine.Name())
	}
	if s.cfg.Detection != DetectIdeal {
		return nil, nil, "non-ideal loss detection (gap/session detection is order-sensitive)"
	}
	if s.Trace != nil {
		return nil, nil, "trace hooks installed (global event order would be lost)"
	}
	// Net-level modes (set from cfg, but tests may also set them directly).
	if s.Net.Queue != nil {
		return nil, nil, "queued routers (queueing state is order-sensitive)"
	}
	if s.Net.Jitter != 0 {
		return nil, nil, "link jitter draws from an order-sensitive rng stream"
	}
	if s.Net.ControlLoss {
		return nil, nil, "lossy control plane draws from an order-sensitive rng stream"
	}
	if s.Net.OnSend != nil || s.Net.OnDrop != nil {
		return nil, nil, "net-level observation hooks installed"
	}
	clients := len(s.Topo.Clients)
	if clients < minParallelClients {
		return nil, nil, fmt.Sprintf("group too small to shard (%d clients < %d)",
			clients, minParallelClients)
	}
	if f := s.cfg.Fault; !f.Empty() {
		// Crash/outage windows are pure time lookups and shard cleanly;
		// burst chains and the message mutator draw from streams whose
		// order a partitioned run cannot reproduce.
		if len(f.Burst) > 0 {
			return nil, nil, "burst-loss faults draw from order-sensitive rng chains"
		}
		if !f.Mutation.Empty() {
			return nil, nil, "message-plane mutation draws from an order-sensitive rng stream"
		}
	}
	k, mode := shardCount(clients), ""
	if d := s.cfg.DomainClients; d > 0 {
		// Hierarchical-domain mode: ⌈clients/DomainClients⌉ domains, like
		// shardCount a pure function of the group and never of the workers.
		k, mode = (clients+d-1)/d, "domain mode: "
	}
	part := mtree.PartitionTree(s.Tree, k)
	if part.K < 2 || part.Lookahead <= 0 || math.IsInf(part.Lookahead, 1) {
		return nil, nil, fmt.Sprintf(
			"%sdegenerate tree partition (%d shard(s) for %d clients, lookahead %v)",
			mode, part.K, clients, part.Lookahead)
	}
	engines := make([]Engine, part.K)
	for i := range engines {
		if engines[i] = cloner.CloneForShard(); engines[i] == nil {
			return nil, nil, fmt.Sprintf(
				"engine %s cannot shard under its current options (run-time replanning or failover)",
				s.engine.Name())
		}
	}
	return engines, part, ""
}

// ParallelEligible reports whether Run will genuinely execute sharded under
// the current configuration — false means Config.SimWorkers (if ≥ 2) would
// silently fall back to the serial path. The scaling sweep uses it to label
// its speedup cells honestly.
func (s *Session) ParallelEligible() bool {
	engines, _, _ := s.planParallel()
	return engines != nil
}

// shardRun is one shard's execution state: its sub-session (which owns the
// shard's event engine, network and engine clone) and window bookkeeping.
type shardRun struct {
	sub       *Session
	processed uint64
	ingest    []sim.RemoteDelivery // scratch for the ingest phase
}

// runSharded executes the session on the conservative parallel engine,
// returning nil when planParallel keeps the run serial (recording why in
// s.serialReason for the serial Result to surface).
func (s *Session) runSharded(maxEvents uint64) *Result {
	engines, part, reason := s.planParallel()
	if engines == nil {
		s.serialReason = reason
		return nil
	}
	k := part.K
	if part.ShardOf[s.Topo.Source] != 0 {
		// The runner assumes the source's shard owns the serial netRand
		// stream; the partitioner guarantees shard 0.
		panic("protocol: source not on shard 0")
	}

	// Re-derive the serial run's rng stream layout: netRand (the only
	// stream that draws in eligible runs — data-plane loss, on the source's
	// shard), protoRand, the fault state's stream, then one SplitN stream
	// per shard for the other shards' nets. The fault state itself is the
	// root session's: it never ran, and crash windows are pure lookups.
	root := rng.New(s.seed)
	netRand := root.Split()
	root.Split() // protoRand
	if !s.cfg.Fault.Empty() {
		root.Split()
	}
	shardRands := root.SplitN(k)

	// Shared read-only state: the host set, and one tree adjacency (CSR)
	// for every shard's net — at a million clients a per-net copy would
	// multiply the largest flooding structure by the domain count.
	hosts := make([]bool, s.numNodes)
	for _, c := range s.Topo.Clients {
		hosts[c] = true
	}
	hosts[s.Topo.Source] = true
	adj := sim.NewTreeAdjacency(s.Topo)
	shards := make([]*shardRun, k)
	for id := range shards {
		r := shardRands[id]
		if id == 0 {
			r = netRand
		}
		net := sim.NewNetShared(sim.NewEngine(), s.Topo, s.Tree, s.Routes, r, adj)
		net.EnableShard(int32(id), part.ShardOf, hosts)
		if s.Net.Fault != nil {
			net.InstallFaultShared(s.Net.Fault)
		}
		sub := newSession(net, engines[id], shardRands[id], s.cfg, s.seed, s)
		for i, c := range s.Topo.Clients {
			if part.ShardOf[c] == int32(id) {
				sub.own(i) // other rows stay nil: an ownership violation faults loudly
			}
		}
		if id == 0 {
			sub.handle(s.Topo.Source)
		}
		engines[id].Attach(sub)
		sub.scheduleProgram(id == 0)
		shards[id] = &shardRun{sub: sub}
	}

	workers := s.cfg.SimWorkers
	if workers > k {
		workers = k
	}
	pool := newShardPool(workers, k)
	defer pool.close()

	delta := part.Lookahead
	var total uint64
	for total < maxEvents {
		// T0: the earliest pending instant anywhere — heap tops plus
		// still-unhanded outbox deliveries from the previous window.
		t0 := math.Inf(1)
		for _, sh := range shards {
			if at, ok := sh.sub.Eng.NextEventAt(); ok && at < t0 {
				t0 = at
			}
			for _, rd := range sh.sub.Net.Outbox() {
				if rd.At < t0 {
					t0 = rd.At
				}
			}
		}
		if math.IsInf(t0, 1) {
			break // quiesced
		}
		horizon := t0 + delta
		// Ingest: each shard collects its own arrivals from every outbox in
		// shard order, time-sorted (stably, so equal instants keep a
		// deterministic order), and schedules them locally.
		pool.each(func(i int) {
			sh := shards[i]
			buf := sh.ingest[:0]
			for _, src := range shards {
				for _, rd := range src.sub.Net.Outbox() {
					if rd.Dst == int32(i) {
						buf = append(buf, rd)
					}
				}
			}
			sort.SliceStable(buf, func(a, b int) bool { return buf[a].At < buf[b].At })
			for _, rd := range buf {
				sh.sub.Net.InjectRemote(rd.At, rd.Node, rd.Pkt)
			}
			sh.ingest = buf
		})
		// Window: each shard clears its (fully ingested) outbox and drains
		// its calendar up to the horizon, emitting next window's traffic.
		pool.each(func(i int) {
			sh := shards[i]
			sh.sub.Net.ResetOutbox()
			sh.processed += sh.sub.Eng.RunBefore(horizon)
		})
		total = 0
		for _, sh := range shards {
			total += sh.processed
		}
	}

	complete := true
	endTime := 0.0
	for _, sh := range shards {
		if sh.sub.Eng.Pending() > 0 || len(sh.sub.Net.Outbox()) > 0 {
			complete = false
		}
		if t := sh.sub.Eng.EndTime(); t > endTime {
			endTime = t
		}
	}
	res := s.mergeShards(shards, total, endTime, complete)
	if s.cfg.DomainClients > 0 {
		// Execution metadata only — both fields are outside the result digest,
		// so a domain run hashes identically to its serial twin.
		res.Domains = k
		res.Aggregators = core.DomainAggregators(s.Tree, part)
	}
	return res
}

// mergeShards folds the shards into this (root) session, which never ran:
// integer counters, hops and histogram buckets sum; client rows and oracle
// shadow rows move over from their owner shard; the order-dependent Welford
// latency summary is replayed from the stamped logs in global time order.
// finish then closes the run exactly as it closes a serial one.
func (s *Session) mergeShards(shards []*shardRun, executed uint64, end float64, complete bool) *Result {
	var lats []latSample
	st := &s.stats
	ran := make([]Engine, len(shards))
	for si, sh := range shards {
		sub := sh.sub
		st.Losses += sub.stats.Losses
		st.Recoveries += sub.stats.Recoveries
		st.Duplicates += sub.stats.Duplicates
		st.PreDetection += sub.stats.PreDetection
		st.DataDeliveries += sub.stats.DataDeliveries
		st.LateData += sub.stats.LateData
		st.Malformed += sub.stats.Malformed
		st.CodedSymbols += sub.stats.CodedSymbols
		st.CodedDuplicates += sub.stats.CodedDuplicates
		st.Failovers += sub.stats.Failovers
		st.FencedStale += sub.stats.FencedStale
		s.Net.Hops.Data += sub.Net.Hops.Data
		s.Net.Hops.Request += sub.Net.Hops.Request
		s.Net.Hops.Repair += sub.Net.Hops.Repair
		s.Net.Drops.Data += sub.Net.Drops.Data
		s.Net.Drops.Request += sub.Net.Drops.Request
		s.Net.Drops.Repair += sub.Net.Drops.Repair
		s.latHist.Merge(sub.latHist)
		lats = append(lats, sub.latLog...)
		for _, i := range sub.owned {
			s.received[i] = sub.received[i]
			s.detectAt[i] = sub.detectAt[i]
			s.perClient[i] = sub.perClient[i]
		}
		if s.oracle != nil {
			s.oracle.Absorb(sub.oracle, sub.owned)
		}
		ran[si] = sub.engine
	}
	// Replay in global event-time order; the stable sort keeps equal
	// instants in (shard, local) order, deterministically.
	slices.SortStableFunc(lats, func(a, b latSample) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	for _, e := range lats {
		st.Latency.Add(e.lat)
	}
	res := s.finish(ran, executed, end, complete)
	res.Sharded = true
	return res
}

// shardPool runs one function over every shard index on a fixed set of
// worker goroutines, with a barrier per call. Shards are claimed through an
// atomic counter, so an uneven shard finishes early and its worker steals
// the next one.
type shardPool struct {
	workers int
	shards  int
	work    chan func(int)
	wg      sync.WaitGroup
	next    atomic.Int64
	failure atomic.Pointer[shardPanic]
}

// shardPanic carries the first panic out of a worker goroutine.
type shardPanic struct {
	val   interface{}
	stack []byte
}

func newShardPool(workers, shards int) *shardPool {
	p := &shardPool{workers: workers, shards: shards, work: make(chan func(int))}
	for w := 0; w < workers; w++ {
		go func() {
			for f := range p.work {
				for {
					i := int(p.next.Add(1)) - 1
					if i >= p.shards {
						break
					}
					p.runOne(f, i)
				}
				p.wg.Done()
			}
		}()
	}
	return p
}

// runOne executes f on one shard, capturing the first panic for the
// coordinator (a panicking worker must still reach wg.Done, or the barrier
// deadlocks).
func (p *shardPool) runOne(f func(int), i int) {
	defer func() {
		if r := recover(); r != nil {
			p.failure.CompareAndSwap(nil, &shardPanic{val: r, stack: debug.Stack()})
		}
	}()
	f(i)
}

// each runs f(i) for every shard index and blocks until all are done,
// re-raising the first shard panic on the caller.
func (p *shardPool) each(f func(int)) {
	p.next.Store(0)
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.work <- f
	}
	p.wg.Wait()
	if fp := p.failure.Load(); fp != nil {
		panic(fmt.Sprintf("protocol: shard worker panic: %v\n%s", fp.val, fp.stack))
	}
}

func (p *shardPool) close() { close(p.work) }

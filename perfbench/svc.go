package main

import (
	"fmt"
	"runtime"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/mtree"
	"rmcast/internal/rng"
	"rmcast/internal/route"
	"rmcast/internal/strategysvc"
)

// churnOp is one generated membership change.
type churnOp struct {
	node graph.NodeID
	join bool
}

// churnPlan generates n membership changes that are all valid in order:
// every client starts as a member, and the generator keeps at most maxOut
// of them departed at once, so the group stays near full size. It returns
// the ops and the membership after the last one.
func churnPlan(clients []graph.NodeID, n, maxOut int, r *rng.Rand) ([]churnOp, []graph.NodeID) {
	in := append([]graph.NodeID(nil), clients...)
	var out []graph.NodeID
	ops := make([]churnOp, n)
	for i := range ops {
		leave := len(out) == 0 || (len(out) < maxOut && len(in) > 1 && r.Bool(0.5))
		if leave {
			k := r.Intn(len(in))
			v := in[k]
			in[k] = in[len(in)-1]
			in = in[:len(in)-1]
			out = append(out, v)
			ops[i] = churnOp{node: v}
		} else {
			k := r.Intn(len(out))
			v := out[k]
			out[k] = out[len(out)-1]
			out = out[:len(out)-1]
			in = append(in, v)
			ops[i] = churnOp{node: v, join: true}
		}
	}
	return ops, in
}

// svcRun is one planning-service instance: setup, a fixed number of rounds
// of churn, and the checks.
type svcRun struct {
	setup    time.Duration // topology, tree, routing, planner and strategysvc.New
	newDur   time.Duration // strategysvc.New alone
	wall     time.Duration // setup + saturation phases + checks; fixed-rate phases last as scheduled
	alloc    uint64
	liveHeap uint64
	rounds   []svcRound
	stats    strategysvc.Stats
	epochs   []uint64 // every distinct snapshot epoch the client observed, in order

	// The model's view of the served final strategies, the service-only
	// counterpart of the simulated recovery metrics.
	expDelayMs float64 // mean expected recovery delay (Eq. 3)
	expHops    float64 // mean round-trip hops of the first recovery attempt
	served     float64 // share of final members the snapshot serves a strategy for

	problems []string
}

// svcRound is one fixed-rate phase, churn issued beside a reader, followed
// by one saturation phase.
type svcRound struct {
	lags       []float64 // ms from each fixed-rate op's due time to its first observation
	late       []float64 // ms each fixed-rate op was issued after its due time
	backlogMax int       // most fixed-rate ops due but not yet observed applied
	queries    uint64
	readBusy   time.Duration // time inside the reader's query blocks
	readFor    time.Duration // length of the fixed-rate phase
	satOps     uint64
	satFor     time.Duration
}

// client is the benchmark's one load goroutine during a fixed-rate
// phase: a closed-loop reader that, between query blocks, also issues each
// churn op once it falls due. Issuing from the reader's goroutine keeps the
// generator punctual (an op is late by at most one block) without a second
// busy goroutine, so on a two-CPU host the applier keeps a CPU to itself.
type client struct {
	svc  *strategysvc.Service
	ids  []graph.NodeID // uniformly random clients, len a power of two
	next int
	hits uint64 // non-nil answers; keeps the Gets from being optimised away

	// The current phase.
	t0         time.Time
	rate       float64
	ops        []churnOp
	epoch0     uint64
	last       uint64 // the last epoch observed
	issued     int
	seen       int
	lags       []time.Duration
	late       []time.Duration
	queries    uint64
	busy       time.Duration
	backlogMax int

	epochs []uint64 // every distinct epoch observed, in order
}

// readBlock is how many Gets the client times as one block; it issues due
// ops and polls the snapshot epoch between blocks.
const readBlock = 1024

func (c *client) due(i int) time.Time {
	return c.t0.Add(time.Duration(float64(i) * 1e9 / c.rate))
}

// phase runs one fixed-rate phase of length d, issuing ops at rate per
// second, and returns once d has passed and every op has been issued.
func (c *client) phase(ops []churnOp, rate float64, d time.Duration, issue func(churnOp)) {
	c.ops, c.rate = ops, rate
	c.issued, c.seen, c.backlogMax, c.queries, c.busy = 0, 0, 0, 0, 0
	c.lags = make([]time.Duration, len(ops))
	c.late = make([]time.Duration, len(ops))
	c.epoch0 = c.svc.Snapshot().Epoch
	c.last = c.epoch0
	c.t0 = time.Now()
	end := c.t0.Add(d)
	mask := len(c.ids) - 1
	for {
		now := time.Now()
		for ; c.issued < len(ops) && !now.Before(c.due(c.issued)); c.issued++ {
			c.late[c.issued] = now.Sub(c.due(c.issued))
			issue(ops[c.issued])
		}
		if c.issued == len(ops) && !now.Before(end) {
			return
		}
		b := time.Now()
		for k := 0; k < readBlock; k++ {
			if c.svc.Get(c.ids[c.next]) != nil {
				c.hits++
			}
			c.next = (c.next + 1) & mask
		}
		after := time.Now()
		c.busy += after.Sub(b)
		c.queries += readBlock
		c.observe(c.svc.Snapshot().Epoch, after)
	}
}

// observe records one epoch poll: newly covered ops get their lag, and the
// backlog of ops due but not yet covered is tracked.
func (c *client) observe(e uint64, now time.Time) {
	if e != c.last {
		c.epochs = append(c.epochs, e)
		c.last = e
	}
	covered := c.seen
	if e >= c.epoch0 {
		covered = min(int(e-c.epoch0), c.issued)
	}
	for ; c.seen < covered; c.seen++ {
		c.lags[c.seen] = now.Sub(c.due(c.seen))
	}
	dueNow := min(int(now.Sub(c.t0).Seconds()*c.rate)+1, len(c.ops))
	c.backlogMax = max(c.backlogMax, dueNow-c.seen)
}

// runService runs one planning-service instance over the workload's group.
func (w *workload) runService(sd seeds, tr *tracer) (*svcRun, error) {
	sr := &svcRun{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	top := tr.begin("svc")
	setup := tr.begin("svc.setup")
	m := tr.begin("topology.gen")
	topo, err := w.topology(sd.topo)
	tr.end(m)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	m = tr.begin("mtree.build")
	tree, err := mtree.Build(topo)
	tr.end(m)
	if err != nil {
		return nil, fmt.Errorf("multicast tree: %w", err)
	}
	// A pure tree is planned over tree-metric routing, as the strategy
	// command serves it; the backbone needs real routing tables.
	var rt route.Router
	if w.treeClients > 0 {
		m = tr.begin("route.tree_tables")
		rt = route.NewTreeTables(tree)
	} else {
		m = tr.begin("route.build")
		rt = route.Build(topo)
	}
	tr.end(m)
	p := core.NewPlanner(tree, rt)
	m = tr.begin("strategysvc.new")
	svc := strategysvc.New(p, strategysvc.Config{})
	sr.newDur = tr.end(m)
	defer svc.Close()
	sr.setup = tr.end(setup)

	r := rng.New(sd.churn)
	nf := w.churnRate * int(w.roundFor/time.Millisecond) / 1000
	total := w.rounds * (nf + w.roundSat)
	ops, final := churnPlan(tree.Clients, total, w.maxOut, r)
	cl := &client{svc: svc, ids: make([]graph.NodeID, 1<<16)}
	for i := range cl.ids {
		cl.ids[i] = tree.Clients[r.Intn(len(tree.Clients))]
	}
	issue := func(o churnOp) {
		if o.join {
			svc.Join(o.node)
		} else {
			svc.Leave(o.node)
		}
	}

	t := time.Now()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	sr.liveHeap = ms.HeapAlloc
	idle := time.Since(t)

	for len(sr.rounds) < w.rounds {
		var rn svcRound
		m = tr.begin("svc.fixed_rate")
		cl.phase(ops[:nf], float64(w.churnRate), w.roundFor, issue)
		rn.readFor = time.Since(cl.t0)
		// Ops not yet seen applied when the phase ended are observed once
		// the applier has drained them.
		svc.Flush()
		cl.observe(svc.Snapshot().Epoch, time.Now())
		idle += tr.end(m)
		rn.lags, rn.late = make([]float64, nf), make([]float64, nf)
		for i := range cl.lags {
			rn.lags[i] = float64(cl.lags[i]) / 1e6
			rn.late[i] = float64(cl.late[i]) / 1e6
		}
		rn.queries, rn.readBusy, rn.backlogMax = cl.queries, cl.busy, cl.backlogMax

		// Saturation phase: the round's remaining ops back to back, then a
		// flush.
		m = tr.begin("svc.saturate")
		applied0 := svc.Stats().Applied
		for _, o := range ops[nf : nf+w.roundSat] {
			issue(o)
		}
		svc.Flush()
		rn.satFor = tr.end(m)
		rn.satOps = svc.Stats().Applied - applied0
		ops = ops[nf+w.roundSat:]
		sr.rounds = append(sr.rounds, rn)
	}
	sr.epochs = cl.epochs

	m = tr.begin("check.service")
	svc.Close()
	sr.stats = svc.Stats()
	snap := svc.Snapshot()
	sr.problems = append(sr.problems, checkEpochs(sr.epochs)...)
	sr.problems = append(sr.problems, checkFinalSnapshot(snap, p, final, uint64(total))...)
	if sr.stats.Rejected != 0 {
		sr.problems = append(sr.problems, fmt.Sprintf("service: %d valid ops rejected", sr.stats.Rejected))
	}
	sr.expDelayMs, sr.expHops, sr.served = servedModel(snap, final, rt, topo.Source)
	tr.end(m)
	sr.wall = tr.end(top) - idle
	runtime.ReadMemStats(&ms)
	sr.alloc = ms.TotalAlloc - alloc0
	return sr, nil
}

// servedModel summarises the strategies a snapshot serves to the given
// members: their mean expected recovery delay, the mean round-trip hop
// count of their first recovery attempt (to the first listed peer, else to
// the source), and the share of members served at all.
func servedModel(snap *strategysvc.Snapshot, members []graph.NodeID, rt route.Router, source graph.NodeID) (delay, hops, served float64) {
	var n int
	for _, c := range members {
		s := snap.Get(c)
		if s == nil {
			continue
		}
		n++
		delay += s.ExpectedDelay
		target := source
		if len(s.Peers) > 0 {
			target = s.Peers[0].Peer
		}
		hops += float64(2 * rt.Hops(c, target))
	}
	return ratio(delay, float64(n)), ratio(hops, float64(n)), ratio(float64(n), float64(len(members)))
}

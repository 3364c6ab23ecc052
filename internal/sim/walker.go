package sim

import "rmcast/internal/graph"

// Hop walkers: pooled, typed replacements for the per-hop closures the
// network layer used to schedule. Every delivery and every queued-model hop
// is one walker event; walkers recycle through an engine-owned free list,
// so forwarding a packet allocates nothing in steady state.
//
// Determinism: each walker replaces exactly one closure of the original
// implementation — the schedule calls happen in the same order, at the same
// times, drawing from the rng stream at the same points — so the (at, seq)
// event order of a fixed-seed run is unchanged.

// walkOp selects what a popped walker event does.
type walkOp uint8

const (
	// wDeliver invokes the destination host's handler with the packet —
	// the terminal event of every precomputed-path delivery.
	wDeliver walkOp = iota
	// wUnicastStep advances a queued-model unicast one routed hop.
	wUnicastStep
	// wFloodVisit delivers at a tree node and fans the queued flood out
	// over its remaining tree links.
	wFloodVisit
	// wSubtreeVisit delivers at a tree node and fans out to its children.
	wSubtreeVisit
	// wAscendStep advances a queued tree ascent one parent hop.
	wAscendStep
	// wDescendStep advances a queued tree descent one child hop.
	wDescendStep
)

// walker is the reusable state of one in-flight hop sequence. Fields are a
// union over the ops: node is always the next node to act at; dest is the
// unicast destination or the ascent meet point; via is the tree link a
// flood arrived on; path/idx drive descents; done fires at the end of an
// ascent or descent.
type walker struct {
	op   walkOp
	n    *Net
	pkt  Packet
	node graph.NodeID
	dest graph.NodeID
	via  graph.EdgeID
	idx  int32
	path []graph.NodeID
	done func()
	next *walker // free-list link
}

// walkerChunk is how many walkers one pool refill allocates at once.
const walkerChunk = 64

// getWalker pops a recycled walker. An empty pool grows by a whole chunk of
// walkers in one allocation rather than one walker per miss.
func (e *Engine) getWalker() *walker {
	if e.freeW == nil {
		chunk := make([]walker, walkerChunk)
		for i := range chunk {
			chunk[i].next = e.freeW
			e.freeW = &chunk[i]
		}
	}
	w := e.freeW
	e.freeW = w.next
	w.next = nil
	return w
}

// putWalker returns a walker to the free list, dropping every reference it
// held (payload, callback, net) while keeping its path capacity.
func (e *Engine) putWalker(w *walker) {
	*w = walker{path: w.path[:0], next: e.freeW}
	e.freeW = w
}

// scheduleWalker enqueues the walker's next event.
func (e *Engine) scheduleWalker(at float64, w *walker) {
	e.push(at, event{kind: evWalker, ref: e.walks.Put(w)})
}

// run dispatches one popped walker event. Ops that terminate here release
// the walker before invoking handlers, so a handler that injects new
// traffic can reuse it immediately.
func (w *walker) run() {
	n := w.n
	switch w.op {
	case wDeliver:
		node, pkt := w.node, w.pkt
		n.Eng.putWalker(w)
		if h := n.handlerOf(node); h != nil {
			h(pkt)
		}
	case wUnicastStep:
		n.unicastStep(w)
	case wFloodVisit:
		node, via, pkt := w.node, w.via, w.pkt
		n.Eng.putWalker(w)
		n.upcall(node, pkt)
		n.floodFanOut(node, via, pkt)
	case wSubtreeVisit:
		node, pkt := w.node, w.pkt
		n.Eng.putWalker(w)
		n.upcall(node, pkt)
		n.subtreeFanOut(node, pkt)
	case wAscendStep:
		n.ascendStep(w)
	case wDescendStep:
		n.descendStep(w)
	}
}

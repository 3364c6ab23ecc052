package protocol

import (
	"math/bits"

	"rmcast/internal/graph"
)

// DedupCache is the engines' bounded duplicate-suppression memory: a
// fixed-capacity record of (host, peer, seq) observations with a last-seen
// time, so an engine can drop a duplicated control packet that arrives
// within a protocol-derived window of its first copy while still honouring
// legitimate retries, which are always spaced wider than the window.
//
// The memory bound is structural, not amortised: a fixed slot ring plus an
// index that never exceeds the ring. When the ring wraps, the oldest
// insertion is overwritten (FIFO), which can only cause a duplicate to be
// re-processed — wasted bandwidth, never a safety or liveness loss. The
// invariant oracle bound-checks Len against Cap at the end of every run.
//
// The index is an open-addressing hash table of ring slots, linear probing
// with deletion by backward shift, sized to at least twice the ring so
// probes stay short. It allocates nothing after construction.
//
// Like the rest of the simulator, a cache belongs to a single run.
type DedupCache struct {
	slots []dedupSlot
	// table holds ring slot+1 per bucket; 0 is an empty bucket.
	table []int32
	mask  int
	shift uint // 64 - log2(len(table)), for the hash's top bits
	head  int
	n     int
}

type dedupKey struct {
	host, peer graph.NodeID
	seq        int
}

type dedupSlot struct {
	key  dedupKey
	at   float64
	used bool
}

// NewDedupCache returns a cache bounded to capacity entries (minimum 1).
func NewDedupCache(capacity int) *DedupCache {
	if capacity < 1 {
		capacity = 1
	}
	lg := uint(bits.Len(uint(2*capacity - 1)))
	return &DedupCache{
		slots: make([]dedupSlot, capacity),
		table: make([]int32, 1<<lg),
		mask:  1<<lg - 1,
		shift: 64 - lg,
	}
}

// home returns k's first probe bucket: a Fibonacci hash of the packed key.
func (d *DedupCache) home(k dedupKey) int {
	h := uint64(uint32(k.host))<<32 | uint64(uint32(k.peer))
	h ^= uint64(k.seq) * 0xc2b2ae3d27d4eb4f
	return int((h * 0x9e3779b97f4a7c15) >> d.shift)
}

// find probes for k: it returns k's bucket and ring slot, or the empty
// bucket that ends the probe and slot -1.
func (d *DedupCache) find(k dedupKey) (bucket, slot int) {
	for b := d.home(k); ; b = (b + 1) & d.mask {
		s := int(d.table[b]) - 1
		if s < 0 || d.slots[s].key == k {
			return b, s
		}
	}
}

// unlink empties bucket b and shifts later entries of its probe run back,
// so every entry stays reachable from its home without tombstones.
func (d *DedupCache) unlink(b int) {
	for j := b; ; {
		d.table[b] = 0
		for {
			j = (j + 1) & d.mask
			s := d.table[j]
			if s == 0 {
				return
			}
			// The entry at j may fill the hole at b unless its home lies
			// cyclically in (b, j].
			h := d.home(d.slots[s-1].key)
			if (b < j && (h <= b || h > j)) || (b > j && h <= b && h > j) {
				d.table[b] = s
				b = j
				break
			}
		}
	}
}

// Seen records the observation (host, peer, seq) at time now and reports
// whether the same key was already observed within window ms — i.e. whether
// this packet is a duplicate the caller should drop. An observation outside
// the window refreshes the entry's time (it is a legitimate retry and opens
// a new suppression window); a hit inside the window does NOT refresh it,
// so a steady duplicate stream cannot starve legitimate retries forever.
func (d *DedupCache) Seen(host, peer graph.NodeID, seq int, now, window float64) bool {
	k := dedupKey{host: host, peer: peer, seq: seq}
	b, i := d.find(k)
	if i >= 0 {
		if now-d.slots[i].at < window {
			return true
		}
		d.slots[i].at = now
		return false
	}
	s := &d.slots[d.head]
	if s.used {
		old, _ := d.find(s.key)
		d.unlink(old)
		b, _ = d.find(k) // the shift may have moved k's empty bucket
	} else {
		d.n++
	}
	*s = dedupSlot{key: k, at: now, used: true}
	d.table[b] = int32(d.head + 1)
	d.head++
	if d.head == len(d.slots) {
		d.head = 0
	}
	return false
}

// Len returns the live entry count.
func (d *DedupCache) Len() int { return d.n }

// Cap returns the structural bound.
func (d *DedupCache) Cap() int { return len(d.slots) }

// DedupAudited is optionally implemented by engines whose duplicate-
// suppression caches the invariant oracle should bound-check at the end of
// a run.
type DedupAudited interface {
	DedupCaches() []*DedupCache
}

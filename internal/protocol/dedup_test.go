package protocol

import (
	"slices"
	"testing"

	"rmcast/internal/graph"
)

func TestDedupCacheWindow(t *testing.T) {
	d := NewDedupCache(16)
	if d.Seen(1, 2, 5, 100, 10) {
		t.Fatal("first observation reported as duplicate")
	}
	if !d.Seen(1, 2, 5, 105, 10) {
		t.Fatal("repeat inside the window not reported")
	}
	// A hit must NOT refresh the entry: the window is anchored at the
	// first copy, so a steady duplicate stream cannot starve retries.
	if !d.Seen(1, 2, 5, 109, 10) {
		t.Fatal("third copy inside the original window not reported")
	}
	if d.Seen(1, 2, 5, 111, 10) {
		t.Fatal("legitimate retry outside the window reported as duplicate")
	}
	// The retry re-anchored the window.
	if !d.Seen(1, 2, 5, 112, 10) {
		t.Fatal("duplicate of the retry not reported")
	}
}

func TestDedupCacheKeysIndependent(t *testing.T) {
	d := NewDedupCache(16)
	d.Seen(1, 2, 5, 100, 10)
	if d.Seen(1, 2, 6, 100, 10) || d.Seen(1, 3, 5, 100, 10) || d.Seen(2, 2, 5, 100, 10) {
		t.Fatal("distinct keys collided")
	}
}

func TestDedupCacheBound(t *testing.T) {
	const cap = 8
	d := NewDedupCache(cap)
	for i := 0; i < 10*cap; i++ {
		d.Seen(graph.NodeID(i), 0, i, float64(i), 1000)
		if d.Len() > d.Cap() {
			t.Fatalf("cache exceeded its bound: %d > %d", d.Len(), d.Cap())
		}
	}
	if d.Len() != cap {
		t.Fatalf("len %d, want full cache %d", d.Len(), cap)
	}
	// FIFO eviction: the oldest key was overwritten, so its duplicate is
	// re-admitted (re-served, never lost).
	if d.Seen(0, 0, 0, float64(10*cap), 1e9) {
		t.Fatal("evicted key still reported as duplicate")
	}
	// The newest key survived.
	if !d.Seen(graph.NodeID(10*cap-1), 0, 10*cap-1, float64(10*cap), 1e9) {
		t.Fatal("resident key not reported as duplicate")
	}
}

func TestDedupCacheMinCapacity(t *testing.T) {
	d := NewDedupCache(0)
	if d.Cap() != 1 {
		t.Fatalf("cap %d, want minimum 1", d.Cap())
	}
	d.Seen(1, 1, 1, 0, 10)
	d.Seen(2, 2, 2, 0, 10)
	if d.Len() != 1 {
		t.Fatalf("len %d, want 1", d.Len())
	}
}

// BenchmarkDedupCache measures the per-packet cost the hardening layer adds
// to every control delivery: one Seen call on a warm, full cache. The bench
// target in ISSUE terms: the adversarial hardening must stay under 5% of a
// control packet's processing budget, and this path is the hot part.
func BenchmarkDedupCache(b *testing.B) {
	d := NewDedupCache(4096)
	for i := 0; i < 4096; i++ {
		d.Seen(graph.NodeID(i%64), graph.NodeID(i%128), i, float64(i), 50)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Seen(graph.NodeID(i%64), graph.NodeID(i%128), i%4096, float64(4096+i), 50)
	}
}

// mapDedupCache is the map-indexed cache DedupCache replaced, kept as the
// oracle for FuzzDedupCache: the same slot ring and FIFO eviction, with a Go
// map as the index.
type mapDedupCache struct {
	slots []dedupSlot
	idx   map[dedupKey]int
	head  int
}

func newMapDedupCache(capacity int) *mapDedupCache {
	if capacity < 1 {
		capacity = 1
	}
	return &mapDedupCache{
		slots: make([]dedupSlot, capacity),
		idx:   make(map[dedupKey]int, capacity),
	}
}

func (d *mapDedupCache) Seen(host, peer graph.NodeID, seq int, now, window float64) bool {
	k := dedupKey{host: host, peer: peer, seq: seq}
	if i, ok := d.idx[k]; ok {
		if now-d.slots[i].at < window {
			return true
		}
		d.slots[i].at = now
		return false
	}
	s := &d.slots[d.head]
	if s.used {
		delete(d.idx, s.key)
	}
	*s = dedupSlot{key: k, at: now, used: true}
	d.idx[k] = d.head
	d.head++
	if d.head == len(d.slots) {
		d.head = 0
	}
	return false
}

// FuzzDedupCache drives DedupCache and the map-indexed oracle with the same
// observations and requires identical answers, Len, and slot rings — the
// ring holds the FIFO eviction order, which decides which duplicates are
// reprocessed. Small key spaces and capacities make hits, refreshes,
// evictions and ring wrap-around common; the index must also hold exactly
// the ring's live entries, each reachable from its home bucket.
func FuzzDedupCache(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 0, 8, 0, 0, 1, 1, 1, 0, 0, 0, 9, 9, 9, 200, 3, 3})
	f.Add(uint8(1), []byte{1, 2, 3, 4, 5, 6, 1, 2, 3})
	f.Add(uint8(33), []byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	// A long pseudo-random stream through a small ring: many evictions,
	// so deletions shift probe runs over and over.
	long := make([]byte, 3000)
	for i := range long {
		long[i] = byte(i*131 + i*i*7)
	}
	f.Add(uint8(16), long)
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		got := NewDedupCache(int(capacity))
		want := newMapDedupCache(int(capacity))
		now := 0.0
		for i := 0; i+2 < len(ops); i += 3 {
			b0, b1, b2 := ops[i], ops[i+1], ops[i+2]
			host := graph.NodeID(b0 & 7)
			peer := graph.NodeID(b1 & 7)
			seq := int(b2 & 31)
			if b2&0x80 != 0 {
				host += 1 << 20 // far-apart keys exercise the full hash
				seq = -seq
			}
			now += float64(b0 >> 3)
			window := float64(b1 >> 3)
			g := got.Seen(host, peer, seq, now, window)
			w := want.Seen(host, peer, seq, now, window)
			if g != w {
				t.Fatalf("op %d Seen(%d,%d,%d,%v,%v) = %v, oracle %v", i/3, host, peer, seq, now, window, g, w)
			}
			if got.Len() != len(want.idx) {
				t.Fatalf("op %d: Len %d, oracle %d", i/3, got.Len(), len(want.idx))
			}
			if got.head != want.head || !slices.Equal(got.slots, want.slots) {
				t.Fatalf("op %d: slot ring diverged from the oracle's", i/3)
			}
		}
		live := 0
		for _, s := range got.table {
			if s != 0 {
				live++
			}
		}
		if live != got.Len() {
			t.Fatalf("index holds %d entries, ring %d", live, got.Len())
		}
		for i, s := range got.slots {
			if !s.used {
				continue
			}
			if _, at := got.find(s.key); at != i {
				t.Fatalf("ring slot %d (%+v) not found through the index (got %d)", i, s.key, at)
			}
		}
	})
}

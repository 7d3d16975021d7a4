package netsim

import "math/bits"

// computeSPF runs Dijkstra from every router, recording IGP distances and
// the set of equal-cost first hops toward every destination. ECMP next hops
// are kept sorted so that flow-hash selection is deterministic. Distances
// lie in one flat table indexed src*stride+dst (IDs are contiguous from
// 0), and the next-hop sets of every (source, destination) pair lie back
// to back in one slab, in source-major order, found through one offset
// table: the forwarding fast path does bounds-checked loads instead of
// map probes per hop, the build makes no slice per pair, and the
// read-only tables are safe to share across concurrent Sends.
func (n *Network) computeSPF() {
	nr := len(n.routers)
	s := newSPFScratch(nr)
	n.stride = nr
	n.dist = make([]int32, nr*nr)
	n.nhOff = make([]int32, nr*nr+1)
	// A reachable pair has at least one next hop, and ECMP sets add at
	// most 13% to that in the catalogue's worlds: a quarter's headroom
	// keeps the slab in one allocation, and appends grow it past that.
	n.nhSlab = make([]int32, 0, nr*nr+nr*nr/4)
	for _, r := range n.routers {
		lo, hi := int(r.ID)*nr, int(r.ID+1)*nr
		n.dijkstra(r.ID, s, n.dist[lo:hi], n.nhOff[lo:hi])
	}
	n.nhOff[nr*nr] = int32(len(n.nhSlab))
}

// nextHops returns the IDs of the ECMP next hops from src toward dst, in
// ascending order; none when dst is src or unreachable.
func (n *Network) nextHops(src, dst RouterID) []int32 {
	i := int(src)*n.stride + int(dst)
	return n.nhSlab[n.nhOff[i]:n.nhOff[i+1]]
}

// spfItem is one priority-queue entry: a tentative cost for a router.
type spfItem struct {
	cost int
	id   RouterID
}

// before orders queue entries by cost, then by router ID.
func (a spfItem) before(b spfItem) bool {
	return a.cost < b.cost || (a.cost == b.cost && a.id < b.id)
}

// spfHeap is a binary min-heap of spfItems ordered by before.
type spfHeap []spfItem

func (h *spfHeap) push(it spfItem) {
	q := append(*h, it)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *spfHeap) pop() spfItem {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < last && q[l].before(q[m]) {
			m = l
		}
		if r := 2*i + 2; r < last && q[r].before(q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// spfScratch is dijkstra's working state, reused across the sources of one
// computeSPF. cost holds the tentative distance to each router, and first
// one bitset row of ⌈n/64⌉ words per router: row v is the set of
// equal-cost first hops (as RouterID bits) toward v.
type spfScratch struct {
	words int
	cost  []int
	first []uint64
	done  []bool
	q     spfHeap
}

func newSPFScratch(nr int) *spfScratch {
	words := (nr + 63) / 64
	return &spfScratch{
		words: words,
		cost:  make([]int, nr),
		first: make([]uint64, nr*words),
		done:  make([]bool, nr),
	}
}

func (s *spfScratch) row(id RouterID) []uint64 {
	return s.first[int(id)*s.words : int(id+1)*s.words]
}

// dijkstra fills dist with the IGP distances from src, indexed by
// RouterID with -1 for unreachable destinations, and appends to n.nhSlab,
// per destination in ID order, the ECMP set of first-hop router IDs on
// shortest paths in ascending order, recording where each set starts in
// off. It relaxes each router's links that are up, in Connect order. Each
// relaxation either replaces the neighbour's first-hop set (a strictly
// cheaper path) or unions into it (an equal-cost one), so zero-weight
// links behave exactly as under a set-per-node formulation.
func (n *Network) dijkstra(src RouterID, s *spfScratch, dist, off []int32) {
	const inf = int(^uint(0) >> 2)
	cost := s.cost
	for i := range cost {
		cost[i] = inf
	}
	cost[src] = 0
	clear(s.first)
	clear(s.done)
	s.q = append(s.q[:0], spfItem{0, src})
	for len(s.q) > 0 {
		it := s.q.pop()
		if s.done[it.id] {
			continue
		}
		s.done[it.id] = true
		from := s.row(it.id)
		for _, l := range n.routers[it.id].links {
			if l.down {
				continue
			}
			c := it.cost + l.weight
			to := s.row(l.to)
			switch {
			case c < cost[l.to]:
				cost[l.to] = c
				if it.id == src {
					clear(to)
					to[l.to/64] = 1 << (l.to % 64)
				} else {
					copy(to, from)
				}
				s.q.push(spfItem{c, l.to})
			case c == cost[l.to] && c < inf:
				if it.id == src {
					to[l.to/64] |= 1 << (l.to % 64)
				} else {
					for w, bitsw := range from {
						to[w] |= bitsw
					}
				}
			}
		}
	}
	slab := n.nhSlab
	for id, c := range cost {
		off[id] = int32(len(slab))
		if c >= inf {
			dist[id] = -1
			continue
		}
		dist[id] = int32(c)
		if RouterID(id) == src {
			continue
		}
		for w, bitsw := range s.row(RouterID(id)) {
			for ; bitsw != 0; bitsw &= bitsw - 1 {
				slab = append(slab, int32(w*64+bits.TrailingZeros64(bitsw)))
			}
		}
	}
	n.nhSlab = slab
}

// NextHop picks the next hop from src toward dst for a given flow hash,
// selecting deterministically among ECMP candidates. ok is false when dst
// is unreachable.
func (n *Network) NextHop(src, dst RouterID, flow uint64) (RouterID, bool) {
	hops := n.nextHops(src, dst)
	switch len(hops) {
	case 0:
		return 0, false
	case 1:
		return RouterID(hops[0]), true // no ECMP choice to hash for
	}
	// Mix the router ID in so different routers spread flows differently,
	// as per-router ECMP hashing does.
	h := flow*0x9e3779b97f4a7c15 + uint64(src)*0x85ebca6b
	h ^= h >> 33
	return RouterID(hops[h%uint64(len(hops))]), true
}

// PathLen returns the number of router hops on the flow's path from src to
// dst (0 when src == dst, -1 when unreachable). It walks the next-hop
// tables; the walk is at most a few dozen slice loads, cheaper than any
// memo lookup, so nothing is cached.
func (n *Network) PathLen(src, dst RouterID, flow uint64) int {
	hops := 0
	for cur := src; cur != dst; {
		nxt, ok := n.NextHop(cur, dst, flow)
		if !ok {
			return -1
		}
		cur = nxt
		hops++
		if hops > len(n.routers) {
			return -1
		}
	}
	return hops
}

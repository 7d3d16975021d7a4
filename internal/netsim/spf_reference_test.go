package netsim

import (
	"container/heap"
	"sort"
)

// This file keeps the map-based Dijkstra that computeSPF replaced, verbatim
// but for its name and for reading each router's links, as the reference
// the bitset implementation is checked against (spf_test.go): one
// first-hop set per node as a map, boxed heap items through
// container/heap, and a sort per destination.

type pqItem struct {
	id   RouterID
	cost int
}

type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	return q[i].cost < q[j].cost || (q[i].cost == q[j].cost && q[i].id < q[j].id)
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// refDijkstra returns the cost slice from src and, per destination, the ECMP
// set of first-hop router IDs on shortest paths; both are indexed by
// RouterID, with dist -1 for unreachable destinations.
func (n *Network) refDijkstra(src RouterID) ([]int, [][]RouterID) {
	const inf = int(^uint(0) >> 2)
	nr := len(n.routers)
	cost := make([]int, nr)
	firstSet := make([]map[RouterID]bool, nr)
	for i := range cost {
		cost[i] = inf
	}
	cost[src] = 0
	q := &pq{{src, 0}}
	done := make([]bool, nr)
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.id] {
			continue
		}
		done[it.id] = true
		for _, nb := range n.routers[it.id].links {
			if nb.down {
				continue
			}
			c := it.cost + nb.weight
			switch {
			case c < cost[nb.to]:
				cost[nb.to] = c
				fs := make(map[RouterID]bool)
				if it.id == src {
					fs[nb.to] = true
				} else {
					for f := range firstSet[it.id] {
						fs[f] = true
					}
				}
				firstSet[nb.to] = fs
				heap.Push(q, pqItem{nb.to, c})
			case c == cost[nb.to] && c < inf:
				fs := firstSet[nb.to]
				if fs == nil {
					fs = make(map[RouterID]bool)
					firstSet[nb.to] = fs
				}
				if it.id == src {
					fs[nb.to] = true
				} else {
					for f := range firstSet[it.id] {
						fs[f] = true
					}
				}
			}
		}
	}
	dist := make([]int, nr)
	first := make([][]RouterID, nr)
	for _, r := range n.routers {
		if cost[r.ID] >= inf {
			dist[r.ID] = -1
			continue
		}
		dist[r.ID] = cost[r.ID]
		if r.ID == src {
			continue
		}
		fs := make([]RouterID, 0, len(firstSet[r.ID]))
		for f := range firstSet[r.ID] {
			fs = append(fs, f)
		}
		sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
		first[r.ID] = fs
	}
	return dist, first
}

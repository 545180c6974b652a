package cluster

import (
	"fmt"
	"sort"
)

// The consistent-hash ring maps problem fingerprints onto nodes with two
// properties the cluster needs: hierarchy affinity (the same problem
// always lands on the same node while membership is stable, so that
// node's setup-cache LRU stays hot) and minimal reshuffling (when a node
// leaves, only the shards it owned move; everyone else's cache stays
// warm). Each member contributes vnodes points hashed from its stable ID,
// smoothing the load split; a key's owners are the first R distinct
// nodes clockwise from its hash, which is also the replication set.

type ringPoint struct {
	hash uint64
	node int
}

type ring struct {
	points []ringPoint
}

// hash64 is FNV-1a with a splitmix64-style finalizer. Raw FNV has weak
// avalanche: near-identical strings ("node0#0".."node0#63", sequential
// problem keys) hash to one tight arc of the ring, which collapses the
// load split. The mixer spreads them uniformly while staying a cheap
// pure function — ring placement must replay identically across runs.
func hash64(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// vnodes is the number of ring points per node.
const vnodes = 64

// buildRing places vnodes points per member on the ring. ids indexes all
// configured nodes by position; members lists the positions currently in
// the ring (the ready set). Points are hashed from the node's stable ID,
// not its position, so a node that leaves and returns reclaims exactly
// its old shards.
func buildRing(ids []string, members []int) *ring {
	pts := make([]ringPoint, 0, len(members)*vnodes)
	for _, m := range members {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", ids[m], v)), node: m})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].node < pts[j].node
	})
	return &ring{points: pts}
}

// owners returns up to n distinct nodes clockwise from key's hash: the
// primary first, then the replication candidates in failover order.
func (r *ring) owners(key string, n int) []int {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	owners := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for k := 0; k < len(r.points) && len(owners) < n; k++ {
		p := r.points[(start+k)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			owners = append(owners, p.node)
		}
	}
	return owners
}

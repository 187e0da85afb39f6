package distrib

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is the cluster's consistent-hash placement map: every sample name
// is owned by exactly one node, a ring over one node more or fewer owns
// only ~1/N of the keyspace differently, and the mapping is a pure
// function of the node set — every node computes the same ring locally, so
// ownership needs no coordination traffic (Dryden et al.'s
// clairvoyant-prefetching observation: placement can be decided from
// shared knowledge alone). Membership is fixed when NewRing builds it, so
// a Ring is safe for concurrent reads.
//
// Each node is projected onto the ring at VirtualNodes seeded positions;
// a key is owned by the first virtual node clockwise from its hash. More
// virtual nodes flatten the per-node keyspace share at the cost of a
// larger (still tiny) sorted table.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]struct{}
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultVirtualNodes balances ownership evenness (a few percent spread at
// 64 points per node) against table size.
const DefaultVirtualNodes = 64

// NewRing builds a placement ring over the given node ids. vnodes <= 0
// selects DefaultVirtualNodes. Duplicate node ids are an error.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes, nodes: make(map[string]struct{}, len(nodes))}
	for _, n := range nodes {
		if err := r.add(n); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// hashKey is FNV-64a: fast, allocation-free, and stable across processes —
// every node derives the identical ring.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// vnodeHash positions one of a node's virtual points. The replica index is
// folded into the hashed string so points are independent.
func vnodeHash(node string, replica int) uint64 {
	return hashKey(fmt.Sprintf("%s#%d", node, replica))
}

// add places a node's virtual points on the ring while NewRing builds it;
// membership is fixed from then on.
func (r *Ring) add(node string) error {
	if node == "" {
		return fmt.Errorf("distrib: empty node id")
	}
	if _, ok := r.nodes[node]; ok {
		return fmt.Errorf("distrib: duplicate node id %q", node)
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return nil
}

// Size reports the node count.
func (r *Ring) Size() int { return len(r.nodes) }

// Nodes lists the member node ids, sorted for deterministic iteration.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner reports which node owns a key: the first virtual point clockwise
// from the key's hash. Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].node
}

// Partitioner returns node's plan partitioner: it filters names down to the
// subsequence node owns, preserving order. A fabric node's stage is built
// with it (core.StageConfig.PlanPartitioner), so SubmitEpoch with the full
// cluster plan prefetches exactly that node's serving share.
func (r *Ring) Partitioner(node string) func(names []string) []string {
	return func(names []string) []string {
		out := make([]string, 0, len(names)/max(1, r.Size())+1)
		for _, n := range names {
			if r.Owner(n) == node {
				out = append(out, n)
			}
		}
		return out
	}
}

package distrib

import (
	"fmt"
	"math/rand"
	"testing"
)

func ringKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sample-%08x.jpg", rng.Uint32())
	}
	return out
}

func ringNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%d", i)
	}
	return out
}

// Every key has exactly one owner, and that owner is a ring member.
func TestRingSingleOwner(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 5, 8} {
		r, err := NewRing(ringNodes(nodes))
		if err != nil {
			t.Fatalf("NewRing(%d): %v", nodes, err)
		}
		members := make(map[string]bool)
		for _, n := range r.Nodes() {
			members[n] = true
		}
		for _, k := range ringKeys(2000, 42) {
			owner := r.Owner(k)
			if !members[owner] {
				t.Fatalf("nodes=%d: key %q owned by non-member %q", nodes, k, owner)
			}
			if again := r.Owner(k); again != owner {
				t.Fatalf("nodes=%d: key %q owner unstable: %q then %q", nodes, k, owner, again)
			}
		}
	}
}

// Consistent hashing's defining property: a ring over one node more moves
// only about 1/N of the keys, and every key that moves involves the changed
// node. The ring is fixed at construction, so join and leave are two
// NewRing calls, over n and n + 1 nodes.
func TestRingStabilityUnderJoinLeave(t *testing.T) {
	const keys = 4000
	names := ringKeys(keys, 7)

	for _, trial := range []struct {
		nodes int
		seed  int64
	}{{4, 1}, {8, 2}, {16, 3}} {
		r, err := NewRing(ringNodes(trial.nodes))
		if err != nil {
			t.Fatal(err)
		}
		before := make(map[string]string, keys)
		for _, k := range names {
			before[k] = r.Owner(k)
		}

		// Join: keys may only move TO the new node.
		joined := fmt.Sprintf("node-%d", trial.nodes)
		grown, err := NewRing(ringNodes(trial.nodes + 1))
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, k := range names {
			after := grown.Owner(k)
			if after != before[k] {
				if after != joined {
					t.Fatalf("nodes=%d: join moved %q from %q to %q (not the joiner)",
						trial.nodes, k, before[k], after)
				}
				moved++
			}
		}
		// Expected share is keys/(nodes+1); allow a generous 2.5x factor for
		// hash variance at 64 vnodes.
		expect := keys / (trial.nodes + 1)
		if moved == 0 || moved > expect*5/2 {
			t.Fatalf("nodes=%d: join moved %d keys, want ~%d", trial.nodes, moved, expect)
		}

		// Leave (n + 1 back to n): only the leaver's keys move; every other
		// key keeps the owner it had with the leaver present.
		for _, k := range names {
			if owner := grown.Owner(k); owner != joined && r.Owner(k) != owner {
				t.Fatalf("nodes=%d: leave moved %q from %q, not the leaver's", trial.nodes, k, owner)
			}
		}
	}
}

// The ring's plan partitioners are disjoint and complete: every node's
// Ring.Partitioner share of the plan holds exactly the entries the ring
// gives it, in plan order, and together they cover every entry once.
func TestPartitionPlanDisjointComplete(t *testing.T) {
	nodes := ringNodes(5)
	plan := ringKeys(3000, 11)
	index := make(map[string]int, len(plan))
	for i, k := range plan {
		index[k] = i
	}
	seen := make(map[string]string)
	total := 0
	for _, node := range nodes {
		r, err := NewRing(nodes)
		if err != nil {
			t.Fatal(err)
		}
		prevIdx := -1
		for _, k := range r.Partitioner(node)(plan) {
			if owner, dup := seen[k]; dup {
				t.Fatalf("key %q in partitions of both %q and %q", k, owner, node)
			}
			seen[k] = node
			if r.Owner(k) != node {
				t.Fatalf("key %q partitioned to %q but owned by %q", k, node, r.Owner(k))
			}
			if index[k] < prevIdx {
				t.Fatalf("partition for %q not order-preserving at %q", node, k)
			}
			prevIdx = index[k]
			total++
		}
	}
	if total != len(plan) {
		t.Fatalf("partitions cover %d of %d plan entries", total, len(plan))
	}
}

// Ring construction edge cases.
func TestRingEdgeCases(t *testing.T) {
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Fatal("empty node name accepted")
	}
	r, err := NewRing(nil)
	if err != nil {
		t.Fatal(err)
	}
	if owner := r.Owner("x"); owner != "" {
		t.Fatalf("empty ring owner = %q, want empty", owner)
	}
	solo, err := NewRing([]string{"solo"})
	if err != nil {
		t.Fatal(err)
	}
	if owner := solo.Owner("x"); owner != "solo" {
		t.Fatalf("single-node ring owner = %q, want solo", owner)
	}
}

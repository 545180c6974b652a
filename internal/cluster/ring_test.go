package cluster

import (
	"fmt"
	"testing"
)

func TestRingOwnersDistinctAndDeterministic(t *testing.T) {
	ids := []string{"a", "b", "c"}
	r := buildRing(ids, []int{0, 1, 2})
	for k := 0; k < 50; k++ {
		key := fmt.Sprintf("key-%d", k)
		own := r.owners(key, 2)
		if len(own) != 2 {
			t.Fatalf("key %q: got %d owners, want 2", key, len(own))
		}
		if own[0] == own[1] {
			t.Fatalf("key %q: duplicate owner %d", key, own[0])
		}
		again := r.owners(key, 2)
		if own[0] != again[0] || own[1] != again[1] {
			t.Fatalf("key %q: owners not deterministic (%v vs %v)", key, own, again)
		}
	}
	// Asking for more owners than members saturates, not panics.
	if own := r.owners("k", 5); len(own) != 3 {
		t.Fatalf("owners(5) over 3 members = %v, want all 3", own)
	}
	// Empty ring yields no owners.
	if own := buildRing(ids, nil).owners("k", 2); own != nil {
		t.Fatalf("empty ring returned owners %v", own)
	}
}

// TestRingAffinityAcrossMembershipChange is the consistent-hashing
// contract: removing one node moves only the shards it owned. Every key
// whose primary survives keeps its primary — which is exactly what keeps
// the surviving nodes' setup caches hot through a kill.
func TestRingAffinityAcrossMembershipChange(t *testing.T) {
	ids := []string{"node0", "node1", "node2"}
	full := buildRing(ids, []int{0, 1, 2})
	reduced := buildRing(ids, []int{0, 1}) // node2 left
	moved, kept := 0, 0
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("prob:7pt:%d:w-jacobi:0.9", k)
		before := full.owners(key, 1)[0]
		after := reduced.owners(key, 1)[0]
		if before == 2 {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %q: primary moved %d -> %d though node %d survived", key, before, after, before)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate split: moved=%d kept=%d (vnode layout is broken)", moved, kept)
	}
	// A node that returns reclaims its exact old shards (ID-hashed, not
	// position-hashed).
	restored := buildRing(ids, []int{0, 1, 2})
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("prob:7pt:%d:w-jacobi:0.9", k)
		if full.owners(key, 2)[0] != restored.owners(key, 2)[0] {
			t.Fatalf("key %q: primary changed after leave+rejoin", key)
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	ids := []string{"node0", "node1", "node2"}
	r := buildRing(ids, []int{0, 1, 2})
	counts := make([]int, 3)
	for k := 0; k < 300; k++ {
		counts[r.owners(fmt.Sprintf("key-%d", k), 1)[0]]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("node %d owns no keys of 300: %v", i, counts)
		}
	}
}

package dsps

import (
	"fmt"
	"testing"
	"time"
)

// runSeeded runs a small two-stage topology (shuffle fan-out into a
// fields-grouped counter) to completion and returns the per-task counter
// fingerprint. opts adjust the test cluster's config after the seed is set.
func runSeeded(t *testing.T, seed int64, opts ...func(*ClusterConfig)) map[string]string {
	t.Helper()
	spout := &wordSpout{words: []string{"a", "b", "c", "d", "e"}, limit: 500}
	b := NewTopologyBuilder("det")
	b.SetSpout("src", func() Spout { return spout }, 1, "word")
	b.SetBolt("pass", func() Bolt { return &relayBolt{} }, 2, "word").ShuffleGrouping("src")
	b.SetBolt("count", func() Bolt { return &wordCounter{} }, 3).FieldsGrouping("pass", "word")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	all := append([]func(*ClusterConfig){func(cfg *ClusterConfig) { cfg.Seed = seed }}, opts...)
	c := testCluster(all...)
	if err := c.Submit(topo, SubmitConfig{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(10 * time.Second) {
		t.Fatal("did not drain")
	}
	snap := c.Snapshot()
	out := map[string]string{}
	for _, comp := range []string{"src", "pass", "count"} {
		for _, ts := range snap.ComponentTasks(comp) {
			key := fmt.Sprintf("%s/%d", comp, ts.TaskIndex)
			out[key] = fmt.Sprintf("exec=%d emit=%d acked=%d failed=%d",
				ts.Executed, ts.Emitted, ts.Acked, ts.Failed)
		}
	}
	return out
}

// seed42Golden is runSeeded's per-task fingerprint at seed 42. It pins
// routing across data-plane changes: shuffle order, fields hashing and the
// edge-id streams must keep landing every tuple on the same task.
var seed42Golden = map[string]string{
	"src/0":   "exec=500 emit=500 acked=500 failed=0",
	"pass/0":  "exec=250 emit=250 acked=0 failed=0",
	"pass/1":  "exec=250 emit=250 acked=0 failed=0",
	"count/0": "exec=0 emit=0 acked=0 failed=0",
	"count/1": "exec=500 emit=0 acked=0 failed=0",
	"count/2": "exec=0 emit=0 acked=0 failed=0",
}

// TestSeedDeterminism pins the engine's reproducibility contract: the same
// topology under the same cluster seed lands every tuple on the same task
// — round-robin shuffle order, fields hashing, and the splitmix64 edge-id
// streams all derive from the seed, not from scheduling. Two runs must be
// byte-identical to each other and to the committed golden table.
func TestSeedDeterminism(t *testing.T) {
	first := runSeeded(t, 42)
	second := runSeeded(t, 42)
	if len(first) != len(seed42Golden) || len(second) != len(seed42Golden) {
		t.Fatalf("task sets differ: %d and %d vs golden %d", len(first), len(second), len(seed42Golden))
	}
	for k, want := range seed42Golden {
		if second[k] != first[k] {
			t.Errorf("task %s diverged across runs: %q vs %q", k, first[k], second[k])
		}
		if first[k] != want {
			t.Errorf("task %s = %q, golden %q", k, first[k], want)
		}
	}
}

// TestRingPlaneDeterminismMatchesChannelPlane pins the reproducibility
// contract across data planes: seed42Golden was produced by both the
// retired channel plane and the ring plane, and the ring plane must keep
// reproducing it with input rings of only 8 batch slots. Routing derives
// from the seed, never from how the hand-off paced the batches, and two
// small-ring runs must be byte-identical to each other.
func TestRingPlaneDeterminismMatchesChannelPlane(t *testing.T) {
	small := func(cfg *ClusterConfig) { cfg.QueueSize = 8 }
	ringsA := runSeeded(t, 42, small)
	ringsB := runSeeded(t, 42, small)
	if len(ringsA) != len(seed42Golden) {
		t.Fatalf("task sets differ: channel-plane golden %d vs rings %d", len(seed42Golden), len(ringsA))
	}
	for k, want := range seed42Golden {
		if ringsA[k] != want {
			t.Errorf("task %s diverged across planes: channel %q vs rings %q", k, want, ringsA[k])
		}
		if ringsB[k] != ringsA[k] {
			t.Errorf("task %s diverged across small-ring runs: %q vs %q", k, ringsA[k], ringsB[k])
		}
	}
}

// TestEdgeIDStreamDeterministic pins the splitmix64 draw: identical task
// seeds yield identical non-zero edge-id streams, distinct seeds diverge.
func TestEdgeIDStreamDeterministic(t *testing.T) {
	a := &task{edgeState: 7}
	b := &task{edgeState: 7}
	c := &task{edgeState: 8}
	var diverged bool
	for i := 0; i < 1000; i++ {
		av, bv, cv := a.nextEdgeID(), b.nextEdgeID(), c.nextEdgeID()
		if av == 0 || bv == 0 || cv == 0 {
			t.Fatal("zero edge id drawn")
		}
		if av != bv {
			t.Fatalf("same-seed streams diverged at draw %d: %x vs %x", i, av, bv)
		}
		if av != cv {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("distinct seeds produced identical streams")
	}
}

package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"simany/internal/metrics"
	"simany/internal/network"
	"simany/internal/snap"
	"simany/internal/topology"
)

// meteredShardedRun executes the trace_merge_test messaging workload on 8
// shards with a metrics registry attached and returns its snapshot and the
// registry's encoded state (every stripe and every core entry).
func meteredShardedRun(t *testing.T, workers int) (metrics.Snapshot, []byte) {
	t.Helper()
	reg := metrics.New()
	k := New(Config{Topo: topology.Mesh(16), Policy: Spatial{T: DefaultT},
		Seed: 7, Shards: 8, Workers: workers, Metrics: reg})
	if !k.Sharded() {
		t.Fatal("expected sharded kernel")
	}
	if k.Metrics() != reg {
		t.Fatal("Metrics() does not return the attached registry")
	}
	k.Handle(kindOneWay, func(k *Kernel, msg network.Message) {})
	for c := 0; c < 16; c++ {
		c := c
		k.InjectTask(c, "w", func(e *Env) {
			for i := 0; i < 25; i++ {
				e.ComputeCycles(float64(10 + c%3))
				e.Send((c+7)%16, kindOneWay, 16, nil)
			}
		}, nil, 0)
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	enc := snap.NewEncoder()
	reg.EncodeState(enc)
	return reg.Snapshot(), enc.Bytes()
}

// TestKernelMetricsDeterministicAcrossWorkers: the full snapshot —
// including per-shard breakdowns — and every counter stripe and per-core
// vector entry must be bitwise identical at every worker count.
func TestKernelMetricsDeterministicAcrossWorkers(t *testing.T) {
	base, baseState := meteredShardedRun(t, 1)
	vectors := map[string]bool{}
	for _, v := range base.Vectors {
		vectors[v.Name] = v.Total > 0
	}
	for _, name := range []string{"core.blocks", "core.task.starts", "core.compute", "net.msgs"} {
		if !vectors[name] {
			t.Errorf("vector %s missing or zero: %+v", name, base.Vectors)
		}
	}
	for _, w := range []int{2, 4, 8} {
		got, state := meteredShardedRun(t, w)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: snapshot diverged:\n  got  %+v\n  want %+v", w, got, base)
		}
		if !bytes.Equal(state, baseState) {
			t.Errorf("workers=%d: counter stripes or vector entries diverged", w)
		}
	}
}

// TestKernelMetricsPopulated: the standard instruments actually record.
func TestKernelMetricsPopulated(t *testing.T) {
	snap, _ := meteredShardedRun(t, 2)
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	hists := map[string]int64{}
	for _, h := range snap.Histograms {
		hists[h.Name] = h.Count
	}
	if counters["shard.barrier.count"] == 0 {
		t.Error("no barriers counted on a sharded run")
	}
	if hists["net.msg.latency"] == 0 {
		t.Error("no message latencies observed")
	}
	if hists["shard.round.steps"] == 0 {
		t.Error("no round step counts observed")
	}
	if hists["net.link.wait"] == 0 {
		t.Error("no link contention observed (workload sends 400 messages over shared links)")
	}
	if _, ok := hists["drift.spread"]; !ok {
		t.Error("drift.spread histogram missing")
	}
}

// TestMetricsNilByDefault: without Config.Metrics the kernel keeps a root
// registry of its own with its always-on counters, but the instruments
// only a caller-supplied registry records (histograms, the barrier pair)
// are nil.
func TestMetricsNilByDefault(t *testing.T) {
	k := New(Config{Topo: topology.Mesh(4), Policy: Spatial{T: DefaultT}, Seed: 1, Shards: 2})
	k.InjectTask(0, "w", func(e *Env) { e.ComputeCycles(5) }, nil, 0)
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if k.Metrics() == nil || k.met != nil {
		t.Fatalf("registry %p, caller-registry instruments %p: want a root and none", k.Metrics(), k.met)
	}
	s := k.Metrics().Snapshot()
	if len(s.Histograms) != 0 {
		t.Errorf("unconfigured kernel records histograms: %+v", s.Histograms)
	}
	for _, c := range s.Counters {
		if c.Name == "shard.barrier.count" || c.Name == "shard.barrier.stall" {
			t.Errorf("unconfigured kernel records %s", c.Name)
		}
		if c.Name == "core.steps" && c.Value != res.Steps {
			t.Errorf("core.steps = %d, Result.Steps = %d", c.Value, res.Steps)
		}
	}
}

// TestMetricsOnSequentialEngine: the registry works on the sequential
// engine too (single stripe, message latency still recorded).
func TestMetricsOnSequentialEngine(t *testing.T) {
	reg := metrics.New()
	k := New(Config{Topo: topology.Mesh(4), Policy: Spatial{T: DefaultT},
		Seed: 3, Metrics: reg})
	k.Handle(kindOneWay, func(k *Kernel, msg network.Message) {})
	k.InjectTask(0, "w", func(e *Env) {
		for i := 0; i < 10; i++ {
			e.ComputeCycles(5)
			e.Send(3, kindOneWay, 16, nil)
		}
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "net.msg.latency" && h.Count == 0 {
			t.Error("sequential engine recorded no message latencies")
		}
	}
}

// TestCheckpointComparesMetricsSection: the root's counters and vectors
// are one compared checkpoint section, so a resume whose file disagrees
// with the replayed counts fails naming it, on both engines.
func TestCheckpointComparesMetricsSection(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ck := pausedCheckpoint(t, churnKernel(shards, 2, 20), 6)
		sec := ck.Sections["metrics"]
		if len(sec) == 0 {
			t.Fatalf("shards=%d: checkpoint has no metrics section", shards)
		}
		sec[len(sec)-1] ^= 0x01
		k := churnKernel(shards, 2, 20)
		if err := k.ArmResume(ck); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(); err == nil || !strings.Contains(err.Error(), `section "metrics"`) {
			t.Errorf("shards=%d: resume over a damaged metrics section: err = %v", shards, err)
		}
	}
}

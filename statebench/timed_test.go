package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/replay"
	"gadget/internal/tracing"
)

// timeDependent lists metric keys whose values depend on timing rather
// than on the operations applied; only their presence is compared.
var timeDependent = map[string]bool{
	"lsm.stall_nanos": true,
	"remote.batches":  true,
	"remote.inflight": true,
}

// TestTimedStackMatchesBare replays the same small trace through each
// workload's bare stack and through its traced stack (timing wrappers
// at every boundary, every op on the tracer's path) and checks that the
// wrappers change nothing a caller can observe: final state (also read
// through a scan and a snapshot of the top of the stack), capabilities,
// metrics, resilience counters and size.
func TestTimedStackMatchesBare(t *testing.T) {
	for _, w := range workloads {
		w := w
		w.Events = 2000
		t.Run(w.Name, func(t *testing.T) {
			traces, err := w.generate(w.Seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle(traces)
			if err != nil {
				t.Fatal(err)
			}
			bare := replayStack(t, w, traces, filepath.Join(t.TempDir(), "bare"), false)
			wrapped := replayStack(t, w, traces, filepath.Join(t.TempDir(), "wrapped"), true)
			if bare.state != want || wrapped.state != want {
				t.Fatalf("final state: bare %+v, wrapped %+v, oracle %+v", bare.state, wrapped.state, want)
			}
			if bare.caps != wrapped.caps {
				t.Errorf("caps: bare %+v, wrapped %+v", bare.caps, wrapped.caps)
			}
			if bare.resilience != wrapped.resilience {
				t.Errorf("resilience counters: bare %+v, wrapped %+v", bare.resilience, wrapped.resilience)
			}
			if bare.size != wrapped.size {
				t.Errorf("size: bare %d, wrapped %d", bare.size, wrapped.size)
			}
			if len(bare.metrics) == 0 {
				t.Fatal("bare stack reports no metrics")
			}
			for k, v := range bare.metrics {
				got, ok := wrapped.metrics[k]
				if !ok {
					t.Errorf("metric %s missing from the wrapped stack", k)
				} else if !timeDependent[k] && got != v {
					t.Errorf("metric %s: bare %d, wrapped %d", k, v, got)
				}
			}
			for k := range wrapped.metrics {
				if _, ok := bare.metrics[k]; !ok {
					t.Errorf("wrapped stack adds metric %s", k)
				}
			}
			if wrapped.outerCalls != wrapped.ops {
				t.Errorf("outer wrapper saw %d calls for %d ops", wrapped.outerCalls, wrapped.ops)
			}
		})
	}
}

type observed struct {
	state      state
	caps       kv.Capabilities
	metrics    map[string]int64
	resilience kv.ResilienceCounters
	size       int64
	ops        int64
	outerCalls int64
}

// replayStack opens w's stack, replays the traces one client per trace
// (sequentially, so metric values are deterministic) and records what
// a caller can observe of the top of the stack.
func replayStack(t *testing.T, w workload, traces [][]kv.Access, dir string, traced bool) observed {
	t.Helper()
	st, err := w.open(dir, traced)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	var tr *tracing.Tracer
	if traced {
		tr = tracing.New(tracing.Options{SampleN: 1})
	}
	var o observed
	for _, trace := range traces {
		res, err := replay.Run(st.top, trace, replay.Options{Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("%d failed ops", res.Errors)
		}
		o.ops += int64(res.Ops)
	}
	if traced {
		if started, finished := tr.Stats(); started != uint64(o.ops) || finished != started {
			t.Fatalf("tracer started %d, finished %d traces for %d ops", started, finished, o.ops)
		}
		o.outerCalls, _ = st.outer.total()
		// The traced path must reach the layers' own stages, not stop
		// at the wrapper.
		inner := tracing.StageEngineMem
		if w.Remote {
			inner = tracing.StageWire
		}
		if tr.StageHist(inner).Count() == 0 {
			t.Fatalf("no %s stage recorded through the wrapped stack", inner)
		}
	}
	if o.state, err = finalState(st.engines); err != nil {
		t.Fatal(err)
	}
	top, err := kv.ScanAll(st.top)
	if err != nil {
		t.Fatal(err)
	}
	if viaTop := digest(top); viaTop != o.state {
		t.Fatalf("scan through the top of the stack: %+v; engines hold %+v", viaTop, o.state)
	}
	if snap, err := kv.SnapshotOf(st.top); err != nil {
		t.Fatalf("snapshot: %v", err)
	} else {
		ents, err := kv.CollectIter(snap.Iter(kv.StateKey{}, kv.MaxStateKey))
		snap.Close()
		if err != nil || digest(ents) != o.state {
			t.Fatalf("snapshot of the top of the stack: %+v, %v; engines hold %+v", digest(ents), err, o.state)
		}
	}
	o.caps = kv.CapsOf(st.top)
	o.metrics = kv.MetricsOf(st.top)
	if r, ok := st.top.(kv.ResilienceReporter); ok {
		o.resilience = r.ResilienceCounters()
	}
	if s, ok := st.top.(kv.Sizer); ok {
		o.size = s.ApproximateSize()
	}
	return o
}

func TestTimedCountsCalls(t *testing.T) {
	m := newTimed(memstore.New())
	key := kv.StateKey{Group: 1}.Bytes()
	if err := m.Put(key, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := m.Merge(key, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Get(key); err != nil || string(v) != "ab" {
		t.Fatalf("get = %q, %v", v, err)
	}
	if _, err := m.DoTraced(tracing.New(tracing.Options{SampleN: 1}).Start(uint8(kv.OpFGet)), kv.TracedOp{Op: kv.OpFGet, Key: key}); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(key); err != nil {
		t.Fatal(err)
	}
	want := map[kv.Op]int64{kv.OpGet: 2, kv.OpPut: 1, kv.OpMerge: 1, kv.OpDelete: 1}
	got := map[kv.Op]int64{}
	for op := kv.Op(0); int(op) < kv.NumOps; op++ {
		if n := m.calls[op].Load(); n > 0 {
			got[op] = n
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("calls = %v, want %v", got, want)
	}
	if calls, nanos := m.total(); calls != 5 || nanos <= 0 {
		t.Fatalf("total = %d calls, %d ns", calls, nanos)
	}
}

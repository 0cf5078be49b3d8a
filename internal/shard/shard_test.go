package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/remote"
)

// startCluster spins up n memstore-backed shards and a client over them.
func startCluster(t *testing.T, n int, opts remote.PipelineOptions) (*Server, *Client, []*memstore.Store) {
	t.Helper()
	backs := make([]*memstore.Store, n)
	stores := make([]kv.Store, n)
	for i := range backs {
		backs[i] = memstore.New()
		stores[i] = backs[i]
	}
	srv, err := Serve(stores, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		for _, b := range backs {
			b.Close()
		}
	})
	cli, err := Dial(srv.Addrs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli, backs
}

func TestShardBasicOps(t *testing.T) {
	_, cli, _ := startCluster(t, 4, remote.PipelineOptions{})
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if err := cli.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if v, err := cli.Get(k); err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get %s = %q, %v", k, v, err)
		}
	}
	if err := cli.Merge([]byte("key-0"), []byte("+")); err != nil {
		t.Fatal(err)
	}
	if v, _ := cli.Get([]byte("key-0")); string(v) != "v0+" {
		t.Fatalf("merge = %q", v)
	}
	if err := cli.Delete([]byte("key-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get([]byte("key-1")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatal("delete failed")
	}
}

// Every key must land on exactly one shard, every shard must carry load
// under a uniform workload, and the per-shard server request counters
// must sum to the client's routed total.
func TestShardRoutingDisjointAndCountersSum(t *testing.T) {
	srv, cli, backs := startCluster(t, 4, remote.PipelineOptions{})
	const keys = 400
	for i := 0; i < keys; i++ {
		if err := cli.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		owners := 0
		for _, b := range backs {
			if _, err := b.Get(k); err == nil {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %s stored on %d shards", k, owners)
		}
	}
	per := srv.PerShardRequests()
	var sum uint64
	for i, n := range per {
		if n == 0 {
			t.Fatalf("shard %d served no requests under a uniform workload: %v", i, per)
		}
		sum += n
	}
	routed := cli.Metrics()["shard.routed"]
	if int64(sum) != routed {
		t.Fatalf("per-shard requests %v sum to %d, client routed %d", per, sum, routed)
	}
	if srv.Requests() != sum {
		t.Fatalf("Requests() = %d, want %d", srv.Requests(), sum)
	}
}

// A fanned-out scan must return the union of the shards' ranges in one
// ascending run, identical to what an unsharded oracle would return.
func TestShardScanMerge(t *testing.T) {
	_, cli, _ := startCluster(t, 4, remote.PipelineOptions{})
	oracle := memstore.New()
	defer oracle.Close()
	for g := uint64(0); g < 4; g++ {
		for s := uint64(0); s < 32; s++ {
			k := kv.StateKey{Group: g, Sub: s}
			v := []byte(fmt.Sprintf("g%d-s%d", g, s))
			if err := cli.Put(k.Bytes(), v); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Put(k.Bytes(), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	lo, hi := kv.StateKey{Group: 1, Sub: 5}, kv.StateKey{Group: 2, Sub: 20}
	got, err := cli.ScanRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	want, err := kv.ScanRange(oracle, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan = %d entries, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// The fan-out snapshot must expose a merged, ordered iterator and point
// Gets, and stay blind to writes issued after it was taken.
func TestShardSnapshotMergedIter(t *testing.T) {
	_, cli, _ := startCluster(t, 3, remote.PipelineOptions{})
	for s := uint64(0); s < 50; s++ {
		k := kv.StateKey{Group: 7, Sub: s}
		if err := cli.Put(k.Bytes(), []byte(fmt.Sprintf("v%d", s))); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := cli.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	// Writes after the snapshot must be invisible through it.
	for s := uint64(50); s < 60; s++ {
		if err := cli.Put(kv.StateKey{Group: 7, Sub: s}.Bytes(), []byte("late")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Put(kv.StateKey{Group: 7, Sub: 0}.Bytes(), []byte("overwritten")); err != nil {
		t.Fatal(err)
	}

	entries, err := kv.CollectIter(snap.Iter(kv.StateKey{}, kv.MaxStateKey))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 50 {
		t.Fatalf("snapshot iter = %d entries, want 50", len(entries))
	}
	// iter_ops counts Next calls: one per entry plus the final one.
	if m := cli.Metrics(); m["shard.snapshots"] != 1 || m["shard.iter_ops"] != 51 {
		t.Fatalf("snapshot counters: snapshots=%d iter_ops=%d, want 1 and 51", m["shard.snapshots"], m["shard.iter_ops"])
	}
	for i, e := range entries {
		if e.Key != (kv.StateKey{Group: 7, Sub: uint64(i)}) {
			t.Fatalf("entry %d out of order: %+v", i, e.Key)
		}
		if string(e.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("entry %d sees post-snapshot write: %q", i, e.Value)
		}
	}
	if v, err := snap.Get(kv.StateKey{Group: 7, Sub: 0}.Bytes()); err != nil || string(v) != "v0" {
		t.Fatalf("snapshot Get = %q, %v", v, err)
	}
	if _, err := snap.Get(kv.StateKey{Group: 7, Sub: 55}.Bytes()); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("snapshot sees post-snapshot key: %v", err)
	}
}

// Concurrent workers over a shared client: the deployment shape that
// keeps every shard's pipeline full.
func TestShardConcurrentWorkers(t *testing.T) {
	srv, cli, _ := startCluster(t, 2, remote.PipelineOptions{Depth: 32})
	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%d-%d", w, i))
				if err := cli.Put(k, []byte("v")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, err := cli.Get(k); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got, want := srv.Requests(), uint64(workers*perWorker*2); got != want {
		t.Fatalf("server requests = %d, want %d", got, want)
	}
}

// Mixed engine kinds per shard must compose: the client is agnostic to
// what serves each shard.
func TestShardMixedEngineKinds(t *testing.T) {
	mem := memstore.New()
	defer mem.Close()
	other := memstore.New() // distinct instance stands in for a second engine kind
	defer other.Close()
	srv, err := Serve([]kv.Store{mem, other}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addrs(), remote.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("mix-%d", i))
		if err := cli.Merge(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if v, err := cli.Get([]byte(fmt.Sprintf("mix-%d", i))); err != nil || string(v) != "x" {
			t.Fatalf("Get = %q, %v", v, err)
		}
	}
}

func TestServeBadAddress(t *testing.T) {
	if _, err := Serve([]kv.Store{memstore.New()}, "not-an-address"); err == nil {
		t.Fatal("bad address should fail")
	}
	if _, err := Serve(nil, "127.0.0.1:0"); err == nil {
		t.Fatal("zero stores should fail")
	}
	if _, err := Serve([]kv.Store{memstore.New(), memstore.New()}, "127.0.0.1:65535"); err == nil {
		t.Fatal("port overflow should fail")
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial(nil, remote.PipelineOptions{}); err == nil {
		t.Fatal("zero addrs should fail")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, remote.PipelineOptions{Redials: -1}); err == nil {
		t.Fatal("unreachable shard should fail dial")
	}
}

// Fixed ports: shard i must listen on port+i.
func TestServeFixedPortFanout(t *testing.T) {
	stores := []kv.Store{memstore.New(), memstore.New()}
	defer func() {
		for _, s := range stores {
			s.(*memstore.Store).Close()
		}
	}()
	// Pick a free base port by grabbing an ephemeral one first.
	probe, err := Serve(stores[:1], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := probe.Addrs()[0]
	probe.Close()
	srv, err := Serve(stores, base)
	if err != nil {
		t.Skipf("fixed ports unavailable: %v", err)
	}
	defer srv.Close()
	addrs := srv.Addrs()
	if addrs[0] != base {
		t.Fatalf("shard 0 on %s, want %s", addrs[0], base)
	}
	cli, err := Dial(addrs, remote.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"fmt"
	"math"

	"gadget/internal/core"
	"gadget/internal/dist"
	"gadget/internal/eventgen"
	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/remote"
	"gadget/internal/shard"
	"gadget/internal/stores"
)

// workload is one input set of the benchmark: a paper operator over a
// synthetic event stream, replayed closed loop against one store stack.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Seed is the seed the workload is tuned and quoted at; HeldOutSeed
	// is kept apart for confirming a claim on inputs not used while the
	// change was written.
	Seed        int64 `json:"seed"`
	HeldOutSeed int64 `json:"held_out_seed"`
	// Clients is the number of concurrent replay clients, each one
	// key-partitioned operator instance waiting for every reply: every
	// workload runs closed loop.
	Clients  int    `json:"clients"`
	Stack    string `json:"stack"`
	FlushWAL string `json:"flush_wal"`

	Operator  core.OperatorType `json:"operator"`
	Events    int               `json:"events"`
	Keys      uint64            `json:"keys"`
	KeyDist   dist.Kind         `json:"key_dist"`
	ValueSize uint32            `json:"value_size"`

	// MemtableBytes and CacheBytes are the LSM memory budgets (0 on the
	// remote stack, whose memstore engines hold everything in memory).
	MemtableBytes int64 `json:"memtable_bytes"`
	CacheBytes    int64 `json:"cache_bytes"`
	// Procs is the GOMAXPROCS the run sets (0 keeps the default of one
	// per CPU).
	Procs int `json:"gomaxprocs"`
	// Remote selects the sharded remote stack instead of the LSM.
	Remote bool `json:"-"`
}

const (
	lsmFlushWAL    = "inline flush and compaction on the writer, WAL off, no fsync"
	remoteFlushWAL = "memstore engines: nothing flushed, no WAL"
	// remoteShards is the shard count of the in-process cluster, one
	// connection per shard shared by every replay client.
	remoteShards = 2
	// pipelineDepth is the protocol-v3 in-flight bound per connection.
	pipelineDepth = 64
)

var workloads = []workload{
	{
		Name:          "window-merge",
		Why:           "sliding-hol over 1000 zipfian keys on rocksdb (1 MiB memtable, 8 MiB cache): merge-heavy, state fits the cache, so the write path and inline flush/compaction do the work",
		Seed:          2,
		HeldOutSeed:   1002,
		Clients:       1,
		Stack:         "replay -> rocksdb (lsm)",
		FlushWAL:      lsmFlushWAL,
		Operator:      core.SlidingHol,
		Events:        100_000,
		Keys:          1000,
		KeyDist:       dist.Zipfian,
		ValueSize:     64,
		MemtableBytes: 1 << 20,
		CacheBytes:    8 << 20,
	},
	{
		Name:        "sharded-remote",
		Why:         "4 key-partitioned sliding-incr clients, closed loop, via resilient + v3 shard client to a 2-shard memstore cluster on loopback: remote, shard and kv layers, no LSM",
		Seed:        3,
		HeldOutSeed: 1003,
		Clients:     4,
		Stack:       "replay -> kv.ResilientStore -> shard.Client (v3, depth 64) -> 2 x shard server -> memstore",
		FlushWAL:    remoteFlushWAL,
		// One P runs the clients, the shard client's connection
		// goroutines and the in-process servers, so hand-offs between
		// them stay on one thread instead of waking the other CPU for
		// every request and response. Over four to ten seeds on a
		// 2-vCPU VM, the spread between quartiles of run throughput was
		// 0.04-0.07 with four clients on one P, 0.11-0.21 with two
		// clients on one or two Ps and 0.19-0.36 with one client.
		Procs:     1,
		Operator:  core.SlidingIncr,
		Events:    12_000,
		Keys:      1000,
		KeyDist:   dist.Zipfian,
		ValueSize: 64,
		Remote:    true,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// midStream drops the end-of-stream MAX watermark, so the trace stops
// mid-stream as a checkpoint would see it: windows stay open and the
// final store state holds live window contents for the output check,
// instead of the empty state a full flush leaves behind.
type midStream struct{ src eventgen.Source }

func (m midStream) Next() (eventgen.Item, bool) {
	for {
		it, ok := m.src.Next()
		if !ok || it.Kind != eventgen.ItemWatermark || it.WM != math.MaxInt64 {
			return it, ok
		}
	}
}

// generate builds the workload's state-access traces from seed: one
// per client, over key-disjoint partitions of one event stream.
func (w workload) generate(seed int64) ([][]kv.Access, error) {
	g, err := eventgen.NewSynthetic(eventgen.Config{
		Events:     w.Events,
		Keys:       w.Keys,
		KeyDist:    w.KeyDist,
		RatePerSec: 500,
		ValueSize:  w.ValueSize,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	parts := eventgen.Partition(midStream{eventgen.WithWatermarks(g, 100, 0)}, w.Clients)
	traces := make([][]kv.Access, len(parts))
	for i, p := range parts {
		op, err := core.New(core.Config{Operator: w.Operator})
		if err != nil {
			return nil, err
		}
		traces[i] = core.Generate(p, op)
	}
	return traces, nil
}

// stack is one opened store stack. top is what the replay clients
// drive; engines hold the final state (one per shard). The timed
// boundaries are set only on a traced stack.
type stack struct {
	top     kv.Store
	engines []kv.Store
	close   func() error

	outer  *timed   // directly below replay
	client *timed   // below the resilient layer, above the shard client
	served []*timed // in front of each shard's engine, server side
}

func (w workload) open(dir string, traced bool) (*stack, error) {
	if w.Remote {
		return w.openRemote(traced)
	}
	db, err := stores.Open(stores.Config{
		Engine:        "rocksdb",
		Dir:           dir,
		MemtableBytes: w.MemtableBytes,
		CacheBytes:    w.CacheBytes,
		FS:            noSyncFS{},
	})
	if err != nil {
		return nil, err
	}
	st := &stack{top: db, engines: []kv.Store{db}, close: db.Close}
	if traced {
		st.outer = newTimed(db)
		st.top = st.outer
	}
	return st, nil
}

func (w workload) openRemote(traced bool) (*stack, error) {
	st := &stack{}
	served := make([]kv.Store, remoteShards)
	for i := range served {
		m := memstore.New()
		st.engines = append(st.engines, m)
		served[i] = m
		if traced {
			t := newTimed(m)
			st.served = append(st.served, t)
			served[i] = t
		}
	}
	srv, err := shard.Serve(served, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cli, err := shard.Dial(srv.Addrs(), remote.PipelineOptions{Depth: pipelineDepth, Traced: traced})
	if err != nil {
		srv.Close()
		return nil, err
	}
	var below kv.Store = cli
	if traced {
		st.client = newTimed(cli)
		below = st.client
	}
	res, err := kv.NewResilientStore(below, kv.ResilienceOptions{})
	if err != nil {
		cli.Close()
		srv.Close()
		return nil, err
	}
	st.top = res
	if traced {
		st.outer = newTimed(res)
		st.top = st.outer
	}
	st.close = func() error {
		err := st.top.Close()
		if serr := srv.Close(); err == nil {
			err = serr
		}
		return err
	}
	return st, nil
}

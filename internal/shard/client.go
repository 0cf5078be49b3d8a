package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gadget/internal/kv"
	"gadget/internal/remote"
	"gadget/internal/tracing"
)

// Client is a kv.Store view of a sharded Server: one pipelined
// connection per shard. Point operations route by key hash; scans and
// snapshots fan out to every shard concurrently and merge the sorted
// per-shard results. Safe for concurrent use — concurrency is in
// fact the point: many callers sharing the client keep every shard's
// pipeline full.
type Client struct {
	kv.Dispatch // Get/Put/Merge/Delete/ScanRange via DoTraced
	conns       []*remote.PipelinedClient
	routed      atomic.Uint64 // point ops routed by key hash
	scans       atomic.Uint64 // fan-out range scans
	snaps       atomic.Uint64 // fan-out snapshots
	iterOps     atomic.Int64  // entries stepped through snapshot iterators
}

var _ kv.Store = (*Client)(nil)

// Dial connects one pipelined client per shard address. The shard count
// and order must match the server's: routing depends on both.
func Dial(addrs []string, opts remote.PipelineOptions) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: no addresses")
	}
	c := &Client{conns: make([]*remote.PipelinedClient, 0, len(addrs))}
	c.Via = c
	for i, addr := range addrs {
		conn, err := remote.DialPipeline(addr, opts)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard %d (%s): %w", i, addr, err)
		}
		c.conns = append(c.conns, conn)
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Client) Shards() int { return len(c.conns) }

// Caps mirrors the per-shard pipelined clients: server-translated merge
// and server-side scans; Snapshots stays false (a snapshot materializes
// every shard's keyspace over the wire).
func (c *Client) Caps() kv.Capabilities {
	return kv.Capabilities{NativeMerge: true, RangeScans: true}
}

// conn returns the shard connection owning key.
func (c *Client) conn(key []byte) *remote.PipelinedClient {
	c.routed.Add(1)
	return c.conns[Route(key, len(c.conns))]
}

var _ kv.Traceable = (*Client)(nil)

// DoTraced implements kv.Traceable and, through the embedded
// kv.Dispatch, the plain kv.Store point ops and ScanRange. Point
// operations charge the route decision to StageRoute and then ride the
// owning shard's pipeline; scans fan out (see scan).
func (c *Client) DoTraced(tc *tracing.Ctx, op kv.TracedOp) (kv.TracedResult, error) {
	if op.Op != kv.OpScan {
		t0 := tc.Now()
		conn := c.conn(op.Key)
		tc.AddSince(tracing.StageRoute, t0)
		return conn.DoTraced(tc, op)
	}
	c.scans.Add(1)
	ents, err := c.scan(tc, op.Lo, op.Hi)
	return kv.TracedResult{Entries: ents}, err
}

// scan is the one fan-out: every shard scans [lo, hi] concurrently
// against its own consistent view, with untraced per-shard calls (a
// pooled Ctx must not be shared across goroutines). The whole fan-out
// wait is charged to StageFanout and the k-way merge of the sorted
// per-shard results to StageMerge. Key ownership is disjoint across
// shards, so the merge never sees duplicates. The first shard error, in
// shard order, fails the scan.
func (c *Client) scan(tc *tracing.Ctx, lo, hi kv.StateKey) ([]kv.Entry, error) {
	t0 := tc.Now()
	parts := make([][]kv.Entry, len(c.conns))
	errs := make([]error, len(c.conns))
	var wg sync.WaitGroup
	for i, conn := range c.conns {
		wg.Add(1)
		go func(i int, conn *remote.PipelinedClient) {
			defer wg.Done()
			parts[i], errs[i] = conn.ScanRange(lo, hi)
		}(i, conn)
	}
	wg.Wait()
	tc.AddSince(tracing.StageFanout, t0)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	tm := tc.Now()
	merged := mergeSorted(parts)
	tc.AddSince(tracing.StageMerge, tm)
	return merged, nil
}

// mergeSorted merges ascending runs into one ascending run by repeated
// min-pick; runs hold disjoint keys (shard-partitioned), so ties cannot
// occur.
func mergeSorted(parts [][]kv.Entry) []kv.Entry {
	total := 0
	live := 0
	for _, p := range parts {
		total += len(p)
		if len(p) > 0 {
			live++
		}
	}
	if total == 0 {
		return nil
	}
	if live == 1 {
		for _, p := range parts {
			if len(p) > 0 {
				return p
			}
		}
	}
	out := make([]kv.Entry, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || p[idx[i]].Key.Less(parts[best][idx[best]].Key) {
				best = i
			}
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}

// Snapshot implements kv.Snapshotter with the scan fan-out: the merged
// full-range scan is sealed into one kv.FallbackSnapshot. It is
// per-shard consistent (each shard's part is a point-in-time view of
// that shard), not a global cut — see the package comment.
func (c *Client) Snapshot() (kv.Snapshot, error) {
	entries, err := c.scan(nil, kv.StateKey{}, kv.MaxStateKey)
	if err != nil {
		return nil, err
	}
	c.snaps.Add(1)
	snap := kv.NewFallbackSnapshot(entries)
	snap.CountIterOps(&c.iterOps)
	return snap, nil
}

// Metrics implements kv.Introspector: the per-shard connection counters
// summed under their usual "remote.*" keys, plus shard-level routing
// counters.
func (c *Client) Metrics() map[string]int64 {
	m := map[string]int64{
		"shard.count":     int64(len(c.conns)),
		"shard.routed":    int64(c.routed.Load()),
		"shard.scans":     int64(c.scans.Load()),
		"shard.snapshots": int64(c.snaps.Load()),
		"shard.iter_ops":  c.iterOps.Load(),
	}
	for _, conn := range c.conns {
		for k, v := range conn.Metrics() {
			m[k] += v
		}
	}
	return m
}

// Close closes every shard connection.
func (c *Client) Close() error {
	var first error
	for _, conn := range c.conns {
		if err := conn.Close(); first == nil {
			first = err
		}
	}
	return first
}

package main

import (
	"sync/atomic"
	"time"

	"gadget/internal/kv"
	"gadget/internal/tracing"
)

// timed is the benchmark's layer-timing wrapper. It sits at one layer
// boundary of a store stack, forwards every call to the store below and
// counts, per operation type, the calls it saw and the wall time they
// took. It forwards every optional kv interface and adds no metric keys
// of its own, so a stack behaves the same with or without it: the
// traced run inserts it, the untraced run does not.
type timed struct {
	inner kv.Store
	calls [kv.NumOps]atomic.Int64
	nanos [kv.NumOps]atomic.Int64
}

func newTimed(inner kv.Store) *timed { return &timed{inner: inner} }

var (
	_ kv.Store              = (*timed)(nil)
	_ kv.Snapshotter        = (*timed)(nil)
	_ kv.RangeScanner       = (*timed)(nil)
	_ kv.Capabler           = (*timed)(nil)
	_ kv.Introspector       = (*timed)(nil)
	_ kv.ResilienceReporter = (*timed)(nil)
	_ kv.Sizer              = (*timed)(nil)
	_ kv.Traceable          = (*timed)(nil)
)

func (t *timed) note(op kv.Op, t0 time.Time) {
	if op == kv.OpFGet {
		op = kv.OpGet
	}
	t.calls[op].Add(1)
	t.nanos[op].Add(int64(time.Since(t0)))
}

func (t *timed) Get(key []byte) ([]byte, error) {
	t0 := time.Now()
	v, err := t.inner.Get(key)
	t.note(kv.OpGet, t0)
	return v, err
}

func (t *timed) Put(key, value []byte) error {
	t0 := time.Now()
	err := t.inner.Put(key, value)
	t.note(kv.OpPut, t0)
	return err
}

func (t *timed) Merge(key, operand []byte) error {
	t0 := time.Now()
	err := t.inner.Merge(key, operand)
	t.note(kv.OpMerge, t0)
	return err
}

func (t *timed) Delete(key []byte) error {
	t0 := time.Now()
	err := t.inner.Delete(key)
	t.note(kv.OpDelete, t0)
	return err
}

func (t *timed) Close() error { return t.inner.Close() }

func (t *timed) ScanRange(lo, hi kv.StateKey) ([]kv.Entry, error) {
	t0 := time.Now()
	ents, err := kv.ScanRange(t.inner, lo, hi)
	t.note(kv.OpScan, t0)
	return ents, err
}

func (t *timed) DoTraced(tc *tracing.Ctx, op kv.TracedOp) (kv.TracedResult, error) {
	t0 := time.Now()
	res, err := kv.DoTraced(t.inner, tc, op)
	t.note(op.Op, t0)
	return res, err
}

func (t *timed) Snapshot() (kv.Snapshot, error) { return kv.SnapshotOf(t.inner) }

func (t *timed) Caps() kv.Capabilities { return kv.CapsOf(t.inner) }

func (t *timed) Metrics() map[string]int64 { return kv.MetricsOf(t.inner) }

// ResilienceCounters reports the wrapped store's counters, or zero ones
// when it keeps none (the replay layer's per-run deltas are then zero,
// as they are for the bare store).
func (t *timed) ResilienceCounters() kv.ResilienceCounters {
	if r, ok := t.inner.(kv.ResilienceReporter); ok {
		return r.ResilienceCounters()
	}
	return kv.ResilienceCounters{}
}

// ApproximateSize reports the wrapped store's size, or 0 when it does
// not know it.
func (t *timed) ApproximateSize() int64 {
	if s, ok := t.inner.(kv.Sizer); ok {
		return s.ApproximateSize()
	}
	return 0
}

// perOp returns the mean time of one call of op in nanoseconds, or 0
// when the layer saw no such call.
func (t *timed) perOp(op kv.Op) float64 {
	n := t.calls[op].Load()
	if n == 0 {
		return 0
	}
	return float64(t.nanos[op].Load()) / float64(n)
}

// total returns the calls and nanoseconds summed over every op type.
func (t *timed) total() (calls, nanos int64) {
	for i := range t.calls {
		calls += t.calls[i].Load()
		nanos += t.nanos[i].Load()
	}
	return calls, nanos
}

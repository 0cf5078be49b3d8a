package kv

import (
	"fmt"

	"gadget/internal/tracing"
)

// TracedOp describes one operation dispatched down the traced path: a
// uniform envelope so a single optional interface method covers the
// whole Store vocabulary.
type TracedOp struct {
	// Op selects the operation.
	Op Op
	// Key is the encoded key for point operations.
	Key []byte
	// Val is the value (OpPut) or merge operand (OpMerge).
	Val []byte
	// Lo, Hi are the scan bounds for OpScan.
	Lo, Hi StateKey
}

// TracedResult carries the result of a traced operation: Val for point
// reads, Entries for scans.
type TracedResult struct {
	Val     []byte
	Entries []Entry
}

// Traceable is the envelope dispatch path: stores (engines, middleware,
// remote clients) that can attribute internal phases to a tracing.Ctx
// implement it. DoTraced must behave exactly like the corresponding
// plain Store call, plus stamping the stages the layer adds. The Ctx may
// be nil (an untraced call): tracing.Ctx is nil-safe, so one body serves
// both. Implementations that wrap an inner store delegate with
// DoTraced(inner, tc, op) so attribution composes through middleware
// stacks.
type Traceable interface {
	DoTraced(tc *tracing.Ctx, op TracedOp) (TracedResult, error)
}

// DoTraced dispatches op against s. A Traceable store gets the envelope
// directly, traced or not. Any other store runs the plain Store call; a
// non-nil Ctx then charges the whole inner duration to StageEngine, so
// opaque leaves (memstore, faster, ...) still account in the stage sum.
func DoTraced(s Store, tc *tracing.Ctx, op TracedOp) (TracedResult, error) {
	return descend(s, tc, &op)
}

// descend is DoTraced with the envelope passed by pointer, so the
// wrappers in this package do not copy it once more per layer.
func descend(s Store, tc *tracing.Ctx, op *TracedOp) (TracedResult, error) {
	if t, ok := s.(Traceable); ok {
		return t.DoTraced(tc, *op)
	}
	if tc == nil {
		return applyPlain(s, op)
	}
	t0 := tc.Now()
	res, err := applyPlain(s, op)
	tc.AddSince(tracing.StageEngine, t0)
	return res, err
}

// applyPlain runs op through the plain Store interface.
func applyPlain(s Store, op *TracedOp) (TracedResult, error) {
	switch op.Op {
	case OpGet, OpFGet:
		v, err := s.Get(op.Key)
		return TracedResult{Val: v}, err
	case OpPut:
		return TracedResult{}, s.Put(op.Key, op.Val)
	case OpMerge:
		return TracedResult{}, s.Merge(op.Key, op.Val)
	case OpDelete:
		return TracedResult{}, s.Delete(op.Key)
	case OpScan:
		ents, err := ScanRange(s, op.Lo, op.Hi)
		return TracedResult{Entries: ents}, err
	default:
		return TracedResult{}, fmt.Errorf("kv: traced dispatch: unsupported op %v", op.Op)
	}
}

// Dispatch is the shared plain surface of a Traceable layer: its
// Get/Put/Merge/Delete and ScanRange wrap their arguments in a TracedOp
// and call Via.DoTraced with a nil Ctx, so a layer's untraced calls run
// exactly the body its traced calls run. A layer embeds Dispatch and
// points Via at itself when it is constructed.
type Dispatch struct{ Via Traceable }

// Get implements Store.
func (d Dispatch) Get(key []byte) ([]byte, error) {
	res, err := d.Via.DoTraced(nil, TracedOp{Op: OpGet, Key: key})
	return res.Val, err
}

// Put implements Store.
func (d Dispatch) Put(key, value []byte) error {
	_, err := d.Via.DoTraced(nil, TracedOp{Op: OpPut, Key: key, Val: value})
	return err
}

// Merge implements Store.
func (d Dispatch) Merge(key, operand []byte) error {
	_, err := d.Via.DoTraced(nil, TracedOp{Op: OpMerge, Key: key, Val: operand})
	return err
}

// Delete implements Store.
func (d Dispatch) Delete(key []byte) error {
	_, err := d.Via.DoTraced(nil, TracedOp{Op: OpDelete, Key: key})
	return err
}

// ScanRange implements RangeScanner.
func (d Dispatch) ScanRange(lo, hi StateKey) ([]Entry, error) {
	res, err := d.Via.DoTraced(nil, TracedOp{Op: OpScan, Lo: lo, Hi: hi})
	return res.Entries, err
}

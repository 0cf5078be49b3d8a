package kv

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gadget/internal/tracing"
)

// ChaosPlan describes a deterministic, seeded schedule of operation-level
// faults — the network/engine twin of vfs.FaultPlan, which injects faults
// at the filesystem layer. All randomness derives from Seed, so a plan
// replays the identical fault schedule on every run with the same
// operation sequence.
//
// Injected errors follow a fail-before-apply contract: when ChaosStore
// returns ErrInjectedFault the wrapped operation was NOT executed, so a
// retry can never duplicate an effect. Latency spikes and stalls delay
// the operation but still execute it.
type ChaosPlan struct {
	// Seed drives the per-operation fault lottery.
	Seed int64
	// ErrorRate is the probability (0..1) that an operation fails with a
	// transient ErrInjectedFault instead of executing.
	ErrorRate float64
	// LatencyRate is the probability (0..1) that an operation is delayed
	// by Latency before executing.
	LatencyRate float64
	// Latency is the injected delay for a latency spike.
	Latency time.Duration
	// StallEvery stalls every Nth operation for Stall before executing
	// (0 disables). Stalls model a store that stops answering: pair with
	// a per-op deadline or a run watchdog.
	StallEvery int
	// Stall is the stall duration.
	Stall time.Duration
	// OutageAfterOps starts a full outage once this many operations have
	// reached the store (0 disables): every operation in the outage
	// window fails with ErrInjectedFault without executing.
	OutageAfterOps int
	// OutageOps is the length of the outage window in operations that
	// reach the store (each failed probe advances the window).
	OutageOps int
}

// Validate rejects rates outside [0,1] and negative schedule fields.
func (p ChaosPlan) Validate() error {
	if p.ErrorRate < 0 || p.ErrorRate > 1 {
		return fmt.Errorf("kv: chaos error_rate %v outside [0,1]", p.ErrorRate)
	}
	if p.LatencyRate < 0 || p.LatencyRate > 1 {
		return fmt.Errorf("kv: chaos latency_rate %v outside [0,1]", p.LatencyRate)
	}
	if p.Latency < 0 || p.Stall < 0 {
		return fmt.Errorf("kv: chaos durations must be non-negative")
	}
	if p.StallEvery < 0 || p.OutageAfterOps < 0 || p.OutageOps < 0 {
		return fmt.Errorf("kv: chaos schedule fields must be non-negative")
	}
	return nil
}

// ChaosCounters reports what a ChaosStore has injected so far.
type ChaosCounters struct {
	// Ops is the number of operations that reached the store.
	Ops uint64
	// InjectedErrors is the number of operations failed with ErrInjectedFault.
	InjectedErrors uint64
	// LatencySpikes is the number of delayed operations.
	LatencySpikes uint64
	// Stalls is the number of stalled operations.
	Stalls uint64
}

// ChaosStore wraps a Store and injects the faults of one ChaosPlan.
// It is safe for concurrent use; the fault lottery is serialized so the
// schedule stays deterministic for a deterministic operation order.
type ChaosStore struct {
	Dispatch // Get/Put/Merge/Delete/ScanRange via DoTraced
	inner    Store
	plan     ChaosPlan

	mu  sync.Mutex
	rng *rand.Rand
	c   ChaosCounters
}

var _ Store = (*ChaosStore)(nil)

// NewChaosStore wraps inner with plan. It panics on an invalid plan
// (callers should Validate first when the plan comes from user input).
func NewChaosStore(inner Store, plan ChaosPlan) *ChaosStore {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	s := &ChaosStore{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
	s.Via = s
	return s
}

// Counters returns a snapshot of the injection counters.
func (s *ChaosStore) Counters() ChaosCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// Metrics implements Introspector: the injection counters under
// "chaos.*", merged over the wrapped store's metrics.
func (s *ChaosStore) Metrics() map[string]int64 {
	c := s.Counters()
	return mergeMetrics(map[string]int64{
		"chaos.ops":             int64(c.Ops),
		"chaos.injected_errors": int64(c.InjectedErrors),
		"chaos.latency_spikes":  int64(c.LatencySpikes),
		"chaos.stalls":          int64(c.Stalls),
	}, MetricsOf(s.inner))
}

// Inner returns the wrapped store.
func (s *ChaosStore) Inner() Store { return s.inner }

// Caps delegates to the wrapped store.
func (s *ChaosStore) Caps() Capabilities { return CapsOf(s.inner) }

// before runs the fault lottery for one operation. It returns a non-nil
// error when the operation must fail without executing, and otherwise a
// delay to impose before executing.
func (s *ChaosStore) before() (time.Duration, error) {
	s.mu.Lock()
	s.c.Ops++
	op := s.c.Ops
	if s.plan.OutageAfterOps > 0 && op > uint64(s.plan.OutageAfterOps) &&
		op <= uint64(s.plan.OutageAfterOps+s.plan.OutageOps) {
		s.c.InjectedErrors++
		s.mu.Unlock()
		return 0, ErrInjectedFault
	}
	if s.plan.ErrorRate > 0 && s.rng.Float64() < s.plan.ErrorRate {
		s.c.InjectedErrors++
		s.mu.Unlock()
		return 0, ErrInjectedFault
	}
	var delay time.Duration
	if s.plan.StallEvery > 0 && op%uint64(s.plan.StallEvery) == 0 {
		s.c.Stalls++
		delay += s.plan.Stall
	}
	if s.plan.LatencyRate > 0 && s.rng.Float64() < s.plan.LatencyRate {
		s.c.LatencySpikes++
		delay += s.plan.Latency
	}
	s.mu.Unlock()
	return delay, nil
}

// admit runs the fault lottery for one operation and imposes its
// delay, charged to StageChaos on tc (nil for untraced calls).
func (s *ChaosStore) admit(tc *tracing.Ctx) error {
	delay, err := s.before()
	if err != nil {
		return err
	}
	if delay > 0 {
		sleepTraced(tc, tracing.StageChaos, delay)
	}
	return nil
}

// sleepTraced sleeps for d, charging it to stage s of tc.
func sleepTraced(tc *tracing.Ctx, s tracing.Stage, d time.Duration) {
	tc.Add(s, int64(d))
	time.Sleep(d)
}

// DoTraced implements Traceable for the chaos wrapper: the injected
// delay is stamped as StageChaos, then the op descends to the inner
// store. Injected errors fail before the inner call.
func (s *ChaosStore) DoTraced(tc *tracing.Ctx, op TracedOp) (TracedResult, error) {
	if err := s.admit(tc); err != nil {
		return TracedResult{}, err
	}
	return descend(s.inner, tc, &op)
}

var _ Traceable = (*ChaosStore)(nil)

// Snapshot implements Snapshotter when the wrapped store does. Acquiring
// the snapshot runs the fault lottery once; afterwards every iterator
// step runs it again, so a long drain through a chaotic store can fail
// mid-scan with ErrInjectedFault — exactly the partial-failure mode a
// resilience layer above has to absorb.
func (s *ChaosStore) Snapshot() (Snapshot, error) {
	if err := s.admit(nil); err != nil {
		return nil, err
	}
	snap, err := SnapshotOf(s.inner)
	if err != nil {
		return nil, err
	}
	return &chaosSnapshot{s: s, inner: snap}, nil
}

type chaosSnapshot struct {
	s     *ChaosStore
	inner Snapshot
}

func (cs *chaosSnapshot) Get(key []byte) ([]byte, error) {
	if err := cs.s.admit(nil); err != nil {
		return nil, err
	}
	return cs.inner.Get(key)
}

func (cs *chaosSnapshot) Iter(lo, hi StateKey) Iterator {
	return &chaosIterator{s: cs.s, inner: cs.inner.Iter(lo, hi)}
}

func (cs *chaosSnapshot) Close() error { return cs.inner.Close() }

// chaosIterator charges each step to the fault lottery. An injected
// fault surfaces through Err() and terminates the iteration; the
// underlying iterator is left where it was (fail-before-apply: the next
// entry was not consumed).
type chaosIterator struct {
	s     *ChaosStore
	inner Iterator
	err   error
}

func (it *chaosIterator) Next() bool {
	if it.err != nil {
		return false
	}
	if err := it.s.admit(nil); err != nil {
		it.err = err
		return false
	}
	return it.inner.Next()
}

func (it *chaosIterator) Key() StateKey { return it.inner.Key() }
func (it *chaosIterator) Value() []byte { return it.inner.Value() }
func (it *chaosIterator) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.inner.Err()
}
func (it *chaosIterator) Close() error { return it.inner.Close() }

// Close closes the wrapped store (never injected).
func (s *ChaosStore) Close() error { return s.inner.Close() }

package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/tracing"
)

// Many goroutines sharing one pipelined client: all ops must complete
// correctly, and the writer must have coalesced them (fewer batch frames
// than requests).
func TestPipelineConcurrentWorkers(t *testing.T) {
	_, cli, _ := startPair(t, PipelineOptions{Depth: 32})
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, i))
				if err := cli.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if v, err := cli.Get(k); err != nil || string(v) != fmt.Sprintf("v%d", i) {
					t.Errorf("Get = %q, %v", v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := cli.Metrics()
	if m["remote.requests"] != workers*perWorker*2 {
		t.Fatalf("requests = %d, want %d", m["remote.requests"], workers*perWorker*2)
	}
	if m["remote.batches"] == 0 || m["remote.batches"] > m["remote.requests"] {
		t.Fatalf("batches = %d of %d requests", m["remote.batches"], m["remote.requests"])
	}
	if m["remote.inflight"] != 0 {
		t.Fatalf("inflight gauge = %d after quiesce", m["remote.inflight"])
	}
}

// slowConn delays each Write, modelling a high-latency link. While the
// writer goroutine sleeps inside Write, concurrent callers keep
// enqueueing — so the next batch must carry several of them.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (s *slowConn) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.Conn.Write(p)
}

// Under a slow link with concurrent callers, the writer must coalesce
// queued requests into shared batch frames rather than shipping one
// frame per request.
func TestPipelineCoalescesBatches(t *testing.T) {
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{
		Depth: 64,
		Dialer: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &slowConn{Conn: conn, delay: 200 * time.Microsecond}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const workers, perWorker = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := cli.Put([]byte(fmt.Sprintf("c%d-%d", w, i)), []byte("v")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := cli.Metrics()
	if m["remote.batches"]*2 > m["remote.requests"] {
		t.Fatalf("batches = %d of %d requests: writer is not coalescing", m["remote.batches"], m["remote.requests"])
	}
}

// A raw v3 server that answers each batch in reverse order: the client
// must match responses to callers by sequence number, not arrival order.
func TestPipelineOutOfOrderResponses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hello := make([]byte, helloLen)
		if _, err := io.ReadFull(conn, hello); err != nil {
			return
		}
		for {
			reqs, err := readBatch(conn)
			if err != nil {
				return
			}
			var out []byte
			for i := len(reqs) - 1; i >= 0; i-- {
				q := reqs[i]
				var hdr [rsp3HdrLen]byte
				binary.LittleEndian.PutUint64(hdr[0:8], q.seq)
				hdr[8] = statusOK
				// Echo the key back as the value so callers can verify
				// they got their own answer.
				binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(q.key)))
				out = append(out, hdr[:]...)
				out = append(out, q.key...)
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()

	cli, err := DialPipeline(ln.Addr().String(), PipelineOptions{Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("w%d-i%d", w, i))
				v, err := cli.Get(k)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if !bytes.Equal(v, k) {
					t.Errorf("got %q for key %q: responses crossed wires", v, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Reconnect replay under pipelining must be exactly-once: concurrent
// merges driven through failing connections appear in the backing store
// exactly once each, even when a whole in-flight batch is retransmitted.
func TestPipelineReconnectExactlyOnceMerges(t *testing.T) {
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()

	// Kill connections at assorted points: mid-hello, mid-batch,
	// mid-response. Budgets grow so later connections carry real traffic
	// before dying.
	budgets := make([]int, 30)
	for i := range budgets {
		budgets[i] = 10 + 37*i%400
	}
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{
		Dialer:  flakyDialer(budgets),
		Redials: 40,
		Depth:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const workers, perWorker = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("m%d", w))
			for i := 0; i < perWorker; i++ {
				if err := cli.Merge(key, []byte(fmt.Sprintf("<%d:%d>", w, i))); err != nil {
					t.Errorf("Merge %d/%d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 0; w < workers; w++ {
		got, err := backing.Get([]byte(fmt.Sprintf("m%d", w)))
		if err != nil {
			t.Fatalf("worker %d key: %v", w, err)
		}
		for i := 0; i < perWorker; i++ {
			token := fmt.Sprintf("<%d:%d>", w, i)
			if n := strings.Count(string(got), token); n != 1 {
				t.Fatalf("operand %s applied %d times (duplicate or dropped merge)", token, n)
			}
		}
	}
	if cli.Metrics()["remote.redials"] == 0 {
		t.Fatal("test exercised no reconnects")
	}
}

// ScanRange and Snapshot work over the pipeline: one server-side scan
// frame, and a snapshot materialized from a full-range scan.
func TestPipelineScanAndSnapshot(t *testing.T) {
	_, cli, _ := startPair(t, PipelineOptions{})
	for i := 0; i < 10; i++ {
		k := kv.StateKey{Group: 1, Sub: uint64(i)}
		if err := cli.Put(k.Bytes(), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := cli.ScanRange(kv.StateKey{Group: 1, Sub: 2}, kv.StateKey{Group: 1, Sub: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("scan [2,5] = %d entries, want 4", len(entries))
	}
	for i, e := range entries {
		if e.Key.Sub != uint64(i+2) || string(e.Value) != fmt.Sprintf("v%d", i+2) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	snap, err := cli.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	got, err := kv.CollectIter(snap.Iter(kv.StateKey{}, kv.MaxStateKey))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("snapshot = %d entries, want 10", len(got))
	}
}

// Depth must bound the in-flight window: with Depth=1 the pipeline
// degrades to serial request/response but still works.
func TestPipelineDepthOne(t *testing.T) {
	_, cli, _ := startPair(t, PipelineOptions{Depth: 1})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("d1-w%d-%d", w, i))
				if err := cli.Put(k, []byte("v")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// The tests below drive the traced envelope (DoTraced with a live trace
// context over a connection that negotiated trace trailers), the path
// an obs.trace run takes; the plain-op tests in remote_test.go cover
// the same behaviour through kv.Dispatch with a nil context.

// tracedCall runs one op through DoTraced under a fresh every-op
// tracer and returns the result, the error, and the stage sum the
// client stamped on the trace.
func tracedCall(c *PipelinedClient, op kv.TracedOp) (kv.TracedResult, int64, error) {
	tr := tracing.New(tracing.Options{SampleN: 1})
	tc := tr.Start(uint8(op.Op))
	defer tr.Finish(tc)
	res, err := c.DoTraced(tc, op)
	return res, tc.StageSum(), err
}

func TestPipelineBasicOps(t *testing.T) {
	_, cli, _ := startPair(t, PipelineOptions{Traced: true})
	key := []byte("a")
	get := kv.TracedOp{Op: kv.OpGet, Key: key}
	steps := []struct {
		op   kv.TracedOp
		want string
		miss bool
	}{
		{op: get, miss: true},
		{op: kv.TracedOp{Op: kv.OpPut, Key: key, Val: []byte("1")}},
		{op: get, want: "1"},
		{op: kv.TracedOp{Op: kv.OpMerge, Key: key, Val: []byte("2")}},
		{op: get, want: "12"},
		{op: kv.TracedOp{Op: kv.OpDelete, Key: key}},
		{op: get, miss: true},
	}
	for i, s := range steps {
		res, stages, err := tracedCall(cli, s.op)
		switch {
		case s.miss && !errors.Is(err, kv.ErrNotFound):
			t.Fatalf("step %d (%v): want ErrNotFound, got %v", i, s.op.Op, err)
		case !s.miss && err != nil:
			t.Fatalf("step %d (%v): %v", i, s.op.Op, err)
		case string(res.Val) != s.want:
			t.Fatalf("step %d (%v) = %q, want %q", i, s.op.Op, res.Val, s.want)
		}
		if stages <= 0 {
			t.Fatalf("step %d (%v): no queue/wire/server time stamped on the trace", i, s.op.Op)
		}
	}
}

// Oversized requests are refused client-side with a typed error before
// they enter the pipeline, so the trace stays empty and the pipeline
// keeps working.
func TestPipelineFrameTooLarge(t *testing.T) {
	_, cli, _ := startPair(t, PipelineOptions{Traced: true})
	big := make([]byte, maxFrame+1)
	_, stages, err := tracedCall(cli, kv.TracedOp{Op: kv.OpMerge, Key: []byte("k"), Val: big})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized Merge = %v, want ErrFrameTooLarge", err)
	}
	if stages != 0 {
		t.Fatalf("refused frame charged %dns to the trace", stages)
	}
	if _, _, err := tracedCall(cli, kv.TracedOp{Op: kv.OpPut, Key: []byte("k"), Val: []byte("v")}); err != nil {
		t.Fatalf("pipeline unusable after refused frame: %v", err)
	}
}

func TestPipelineClientAfterClose(t *testing.T) {
	_, cli, _ := startPair(t, PipelineOptions{Traced: true})
	put := kv.TracedOp{Op: kv.OpPut, Key: []byte("k"), Val: []byte("v")}
	if _, _, err := tracedCall(cli, put); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if _, _, err := tracedCall(cli, put); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("traced Put after close = %v", err)
	}
	if _, _, err := tracedCall(cli, kv.TracedOp{Op: kv.OpScan, Hi: kv.MaxStateKey}); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("traced scan after close = %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

// A server that swallows requests without answering: the read deadline
// must fail a traced op with a transient, outcome-unknown error, and
// the time it spent waiting must show on its trace.
func TestPipelineTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()
	cli, err := DialPipeline(ln.Addr().String(), PipelineOptions{
		Timeout: 20 * time.Millisecond,
		Redials: 1,
		Traced:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	_, stages, err := tracedCall(cli, kv.TracedOp{Op: kv.OpPut, Key: []byte("k"), Val: []byte("v")})
	if err == nil {
		t.Fatal("hung server should time out")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timeout too slow: %v", time.Since(start))
	}
	if !kv.Transient(err) || !kv.OutcomeUnknown(err) {
		t.Fatalf("timeout misclassified: transient=%v unknown=%v (%v)", kv.Transient(err), kv.OutcomeUnknown(err), err)
	}
	if stages <= 0 {
		t.Fatal("timed-out op left no time on its trace")
	}
}

// A backend panic fails only its own request: on a traced connection
// the error response still carries its trailer, so the frames after it
// parse and succeed.
func TestPipelineServerPanicRecovery(t *testing.T) {
	backing := &panicStore{memstore.New()}
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, _, err := tracedCall(cli, kv.TracedOp{Op: kv.OpMerge, Key: []byte("k"), Val: []byte("x")}); err == nil {
		t.Fatal("panicking op should error")
	}
	if _, _, err := tracedCall(cli, kv.TracedOp{Op: kv.OpPut, Key: []byte("k"), Val: []byte("v")}); err != nil {
		t.Fatalf("connection poisoned by panic: %v", err)
	}
	if res, _, err := tracedCall(cli, kv.TracedOp{Op: kv.OpGet, Key: []byte("k")}); err != nil || string(res.Val) != "v" {
		t.Fatalf("Get = %q, %v", res.Val, err)
	}
}

func BenchmarkPipelinedRoundTrip(b *testing.B) {
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	key := []byte("bench-key")
	val := make([]byte, 256)
	cli.Put(key, val)
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			cli.Get(key)
		}
	})
}

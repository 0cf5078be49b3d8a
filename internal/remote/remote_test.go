package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"gadget/internal/core"
	"gadget/internal/eventgen"
	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/replay"
)

func startPair(t *testing.T, opts PipelineOptions) (*Server, *PipelinedClient, *memstore.Store) {
	t.Helper()
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); backing.Close() })
	cli, err := DialPipeline(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli, backing
}

func TestBasicOps(t *testing.T) {
	_, cli, _ := startPair(t, PipelineOptions{})
	if _, err := cli.Get([]byte("a")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("miss = %v", err)
	}
	if err := cli.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, err := cli.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := cli.Merge([]byte("a"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := cli.Get([]byte("a")); string(v) != "12" {
		t.Fatalf("merge = %q", v)
	}
	if err := cli.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get([]byte("a")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatal("delete failed")
	}
}

func TestEmptyKeysAndValues(t *testing.T) {
	_, cli, _ := startPair(t, PipelineOptions{})
	if err := cli.Put(nil, nil); err != nil {
		t.Fatal(err)
	}
	if v, err := cli.Get(nil); err != nil || len(v) != 0 {
		t.Fatalf("empty key Get = %q, %v", v, err)
	}
}

func TestLargeValues(t *testing.T) {
	_, cli, _ := startPair(t, PipelineOptions{})
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := cli.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	v, err := cli.Get([]byte("big"))
	if err != nil || len(v) != len(big) {
		t.Fatalf("big Get len=%d err=%v", len(v), err)
	}
	for i := range v {
		if v[i] != big[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

func TestManyClients(t *testing.T) {
	srv, _, _ := startPair(t, PipelineOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("g%d-k%d", g, i))
				if err := cli.Put(k, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, err := cli.Get(k); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestClientAfterClose(t *testing.T) {
	_, cli, _ := startPair(t, PipelineOptions{})
	if err := cli.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if err := cli.Put([]byte("k"), nil); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("Put after close = %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	srv, cli, _ := startPair(t, PipelineOptions{})
	srv.Close()
	if err := cli.Put([]byte("k"), nil); err == nil {
		t.Fatal("put after server close should fail")
	}
}

func TestBackendErrorsPropagate(t *testing.T) {
	backing := memstore.New()
	backing.Close() // every op will error
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Put([]byte("k"), nil); err == nil {
		t.Fatal("backend error should propagate")
	}
}

// The paper's external-state scenario: a full streaming workload driven
// through the remote store, concurrently from two operator instances.
func TestExternalStateWorkload(t *testing.T) {
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()

	mkTrace := func(seed int64) []kv.Access {
		g, err := eventgen.NewSynthetic(eventgen.Config{Events: 2000, Keys: 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		src := eventgen.WithWatermarks(g, 100, 0)
		op, err := core.New(core.Config{Operator: core.TumblingIncr, WindowLengthMs: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return core.Generate(src, op)
	}
	var wg sync.WaitGroup
	results := make([]replay.Result, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			res, err := replay.Run(cli, mkTrace(int64(i)), replay.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.Ops == 0 || res.Errors != 0 {
			t.Fatalf("instance %d: %+v", i, res)
		}
	}
}

// flakyConn wraps a net.Conn and fails after a byte budget is spent
// across reads and writes, closing the underlying connection mid-frame.
type flakyConn struct {
	net.Conn
	mu     sync.Mutex
	budget int // bytes until injected failure; <0 = healthy
}

var errFlaky = errors.New("flaky conn: injected failure")

func (f *flakyConn) spend(n int) (allowed int, failed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.budget < 0 {
		return n, false
	}
	if n <= f.budget {
		f.budget -= n
		return n, false
	}
	allowed = f.budget
	f.budget = 0
	return allowed, true
}

func (f *flakyConn) Write(p []byte) (int, error) {
	allowed, failed := f.spend(len(p))
	if !failed {
		return f.Conn.Write(p)
	}
	// Mid-frame disconnect: part of the frame reaches the peer, then the
	// connection dies.
	if allowed > 0 {
		f.Conn.Write(p[:allowed])
	}
	f.Conn.Close()
	return allowed, errFlaky
}

func (f *flakyConn) Read(p []byte) (int, error) {
	f.mu.Lock()
	budget := f.budget
	f.mu.Unlock()
	if budget < 0 {
		return f.Conn.Read(p)
	}
	if budget == 0 {
		f.Conn.Close()
		return 0, errFlaky
	}
	// Serve at most the remaining budget so the failure lands mid-frame.
	if len(p) > budget {
		p = p[:budget]
	}
	n, err := f.Conn.Read(p)
	f.spend(n)
	return n, err
}

// flakyDialer returns a Dialer whose first len(budgets) connections fail
// after the given byte budgets; later connections are healthy.
func flakyDialer(budgets []int) func(addr string) (net.Conn, error) {
	var mu sync.Mutex
	i := 0
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		budget := -1
		if i < len(budgets) {
			budget = budgets[i]
			i++
		}
		return &flakyConn{Conn: conn, budget: budget}, nil
	}
}

// A single I/O error must not poison the connection: the client redials
// and the operation stream continues.
func TestClientSurvivesMidFrameDisconnect(t *testing.T) {
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()

	// Budgets chosen to kill connections at assorted points of the first
	// Put (hello 13 bytes, batch header 8, request header 17, key and
	// value 3 each, response header 13): during the hello, mid-header,
	// mid-payload, and mid-response; the last connection dies after a
	// few round trips.
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{
		Dialer:  flakyDialer([]int{5, 25, 40, 50, 150}),
		Redials: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		if err := cli.Put(k, []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if v, err := cli.Get(k); err != nil || string(v) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("Get %d = %q, %v", i, v, err)
		}
	}
	// Four flaky connections got past the hello, plus the healthy one.
	if d := cli.Metrics()["remote.dials"]; d < 5 {
		t.Fatalf("dials = %d: the injected disconnects did not all fire", d)
	}
}

// Reconnect replay must be exactly-once: merges driven one at a time
// through failing connections appear in the backing store exactly once
// each. (TestPipelineReconnectExactlyOnceMerges covers concurrent
// callers retransmitting whole batches.)
func TestReconnectReplayExactlyOnceMerges(t *testing.T) {
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()

	// Fail every other connection after a small budget, so many ops are
	// interrupted after the request was (fully or partially) sent.
	budgets := make([]int, 40)
	for i := range budgets {
		budgets[i] = 30 + 13*i%90
	}
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{Dialer: flakyDialer(budgets), Redials: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	oracle := map[string]string{}
	key := func(i int) []byte { return []byte(fmt.Sprintf("m%d", i%7)) }
	for i := 0; i < 300; i++ {
		operand := fmt.Sprintf("<%d>", i)
		if err := cli.Merge(key(i), []byte(operand)); err != nil {
			t.Fatalf("Merge %d: %v", i, err)
		}
		k := string(key(i))
		oracle[k] += operand
	}
	for k, want := range oracle {
		got, err := backing.Get([]byte(k))
		if err != nil || string(got) != want {
			t.Fatalf("key %s: got %q, %v; want %q (duplicate or dropped merge)", k, got, err, want)
		}
	}
}

// Transient backend errors must cross the wire as retry-safe transient
// errors, and fatal ones as fatal.
func TestTransientStatusPropagation(t *testing.T) {
	backing := kv.NewChaosStore(memstore.New(), kv.ChaosPlan{Seed: 3, ErrorRate: 1.0})
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	err = cli.Put([]byte("k"), []byte("v"))
	if err == nil {
		t.Fatal("chaos fault should surface")
	}
	if !kv.Transient(err) {
		t.Fatalf("injected fault crossed the wire as fatal: %v", err)
	}
	if kv.OutcomeUnknown(err) {
		t.Fatalf("statusTransient is fail-before-apply, not outcome-unknown: %v", err)
	}
}

// panicStore panics on Merge — the server must fail the request, not the
// connection.
type panicStore struct{ *memstore.Store }

func (p *panicStore) Merge(key, operand []byte) error { panic("merge exploded") }

func TestServerPanicRecovery(t *testing.T) {
	backing := &panicStore{memstore.New()}
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Merge([]byte("k"), []byte("x")); err == nil {
		t.Fatal("panicking op should error")
	}
	// The connection must still work.
	if err := cli.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("connection poisoned by panic: %v", err)
	}
	if v, err := cli.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

// Oversized requests are refused client-side with a typed error,
// without disturbing the pipeline.
func TestFrameTooLarge(t *testing.T) {
	_, cli, _ := startPair(t, PipelineOptions{})
	big := make([]byte, maxFrame+1)
	if err := cli.Put([]byte("k"), big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized Put = %v, want ErrFrameTooLarge", err)
	}
	// The client never sent anything; the connection is fine.
	if err := cli.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("connection unusable after refused frame: %v", err)
	}
}

// expectClosedSilently asserts the server closes raw without sending a
// single byte.
func expectClosedSilently(t *testing.T, raw net.Conn, what string) {
	t.Helper()
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := raw.Read(make([]byte, 16))
	if n != 0 {
		t.Fatalf("server answered %s with %d bytes", what, n)
	}
	if err != io.EOF {
		t.Fatalf("server did not close the connection after %s: %v", what, err)
	}
}

// A garbage client, and a well-formed hello for any version but 3
// (protocol v2 is retired), must be closed without a reply and without
// disturbing the server.
func TestServerRejectsBadHello(t *testing.T) {
	srv, cli, _ := startPair(t, PipelineOptions{})
	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"garbage hello", []byte("GET / HTTP/1.1\r\n\r\n garbage garbage")},
		{"version-2 hello", appendRequest(appendHello(nil, 2, 7),
			request{seq: 1, op: opPut, key: []byte("k"), val: []byte("v2")})},
		{"traced version-2 hello", appendHello(nil, 2|helloTraceFlag, 8)},
	} {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		raw.Write(tc.bytes)
		expectClosedSilently(t, raw, "a "+tc.name)
		raw.Close()
	}
	// Real clients are unaffected, and the version-2 request was never
	// applied.
	if _, err := cli.Get([]byte("k")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("version-2 request reached the store: %v", err)
	}
	if err := cli.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// A batch header declaring a payload over maxFrame cannot be read, so
// the server drops the connection, counts it as oversized, and keeps
// serving other clients.
func TestServerDropsOversizedBatch(t *testing.T) {
	srv, _, _ := startPair(t, PipelineOptions{})
	before := srv.Metrics()["remote_server.oversized"]
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [batchHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1)
	binary.LittleEndian.PutUint32(hdr[4:8], maxFrame+1)
	raw.Write(append(appendHello(nil, protoV3, 11), hdr[:]...))
	expectClosedSilently(t, raw, "an oversized batch")
	if got := srv.Metrics()["remote_server.oversized"] - before; got != 1 {
		t.Fatalf("remote_server.oversized rose by %d, want 1", got)
	}
	fresh, err := DialPipeline(srv.Addr(), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("server unusable after an oversized batch: %v", err)
	}
}

// A server that swallows requests without answering: the read deadline
// must fail pending ops with a transient, outcome-unknown error instead
// of hanging all callers forever.
func TestClientTimeout(t *testing.T) {
	// A listener that accepts and then never answers (after the hello).
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
			go io.Copy(io.Discard, conn) // swallow everything, answer nothing
		}
	}()
	cli, err := DialPipeline(ln.Addr().String(), PipelineOptions{Timeout: 20 * time.Millisecond, Redials: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	err = cli.Put([]byte("k"), []byte("v"))
	if err == nil {
		t.Fatal("hung server should time out")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("timeout too slow: %v", time.Since(start))
	}
	if !kv.Transient(err) || !kv.OutcomeUnknown(err) {
		t.Fatalf("timeout misclassified: transient=%v unknown=%v (%v)", kv.Transient(err), kv.OutcomeUnknown(err), err)
	}
}

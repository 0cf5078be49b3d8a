package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"gadget/internal/memstore"
)

// FuzzServerFrame throws a raw byte stream, hello included, at a live
// server connection. The server must never panic or hang, and must keep
// serving well-formed clients afterward.
func FuzzServerFrame(f *testing.F) {
	// Seed corpus: a v3 hello alone and followed by a valid batch, a
	// truncated hello, HTTP garbage, oversized length fields, a refused
	// version-2 hello, and a traced hello.
	hello := appendHello(nil, protoV3, 42)
	f.Add(hello)
	f.Add(hello[:7])
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	put := request{seq: 1, op: opPut, key: []byte("k"), val: []byte("v")}
	f.Add(appendBatch(append([]byte(nil), hello...), []request{put}))
	huge := make([]byte, batchHdrLen)
	binary.LittleEndian.PutUint32(huge[0:4], 1)
	binary.LittleEndian.PutUint32(huge[4:8], 0xFFFFFFFF)
	f.Add(append(append([]byte(nil), hello...), huge...))
	overrun := appendBatch(append([]byte(nil), hello...), []request{{seq: 2, op: opGet, key: []byte("k")}})
	binary.LittleEndian.PutUint32(overrun[helloLen+batchHdrLen+9:], 0xFFFFFFFF)
	f.Add(overrun)
	f.Add(appendRequest(appendHello(nil, 2, 43), put))
	f.Add(appendBatch(appendHello(nil, protoV3|helloTraceFlag, 44), []request{put}))

	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close(); backing.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Skip("dial failed")
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		conn.Write(data)
		// Half-close so a server waiting for more input sees EOF, then
		// drain whatever it answers until it closes or stalls; the only
		// requirement is that it neither panics nor hangs.
		conn.(*net.TCPConn).CloseWrite()
		io.Copy(io.Discard, conn)
		conn.Close()

		// The server must still serve a healthy client.
		cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
		if err != nil {
			t.Fatalf("server unusable after fuzz input %x: %v", data, err)
		}
		if err := cli.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatalf("server poisoned by fuzz input %x: %v", data, err)
		}
		cli.Close()
	})
}

// FuzzBatchFrame exercises the v3 batch codec two ways: arbitrary bytes
// must decode without panics or over-reads, and any batch that does
// decode must survive a re-encode/re-decode round trip unchanged. It
// also throws the raw bytes at a live v3 server connection, which must
// keep serving well-formed clients afterward.
func FuzzBatchFrame(f *testing.F) {
	// Seed corpus: a valid single-op batch, a valid multi-op batch,
	// truncated payloads, a zero-count header, and length fields that
	// overrun the payload.
	one := appendBatch(nil, []request{{seq: 1, op: opPut, key: []byte("k"), val: []byte("v")}})
	f.Add(one)
	many := appendBatch(nil, []request{
		{seq: 2, op: opGet, key: []byte("a")},
		{seq: 3, op: opMerge, key: []byte("b"), val: []byte("+1")},
		{seq: 4, op: opDelete, key: []byte("c")},
	})
	f.Add(many)
	f.Add(one[:batchHdrLen+3])
	zero := make([]byte, batchHdrLen)
	f.Add(zero)
	overrun := append([]byte(nil), one...)
	binary.LittleEndian.PutUint32(overrun[batchHdrLen+9:], 0xFFFF)
	f.Add(overrun)

	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close(); backing.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		// Codec robustness: decode must never panic, and a decodable
		// batch must round-trip exactly.
		if reqs, err := readBatch(bytes.NewReader(data)); err == nil {
			enc := appendBatch(nil, reqs)
			again, err := readBatch(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("re-decode of re-encoded batch failed: %v", err)
			}
			if len(again) != len(reqs) {
				t.Fatalf("round trip changed count: %d != %d", len(again), len(reqs))
			}
			for i := range reqs {
				if again[i].seq != reqs[i].seq || again[i].op != reqs[i].op ||
					!bytes.Equal(again[i].key, reqs[i].key) || !bytes.Equal(again[i].val, reqs[i].val) {
					t.Fatalf("round trip changed record %d: %+v != %+v", i, again[i], reqs[i])
				}
			}
		}

		// Server robustness: a v3 hello followed by the fuzz bytes must
		// neither panic nor poison the server.
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Skip("dial failed")
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		conn.Write(appendHello(nil, protoV3, 99))
		conn.Write(data)
		conn.(*net.TCPConn).CloseWrite()
		io.Copy(io.Discard, conn)
		conn.Close()

		cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
		if err != nil {
			t.Fatalf("server unusable after fuzz input %x: %v", data, err)
		}
		if err := cli.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatalf("server poisoned by fuzz input %x: %v", data, err)
		}
		cli.Close()
	})
}

// FuzzClientFrame feeds arbitrary bytes to a pipelined client as the
// server's answer to its first batch (one Get, sequence number 1), on a
// connection with or without negotiated trace trailers. The client must
// never panic, hang, or over-read.
func FuzzClientFrame(f *testing.F) {
	// Seed corpus: OK, not-found, error with message, and transient
	// responses; a truncated header; an oversized payload length; a
	// response for an unknown sequence number; and on traced
	// connections, a valid trailer, out-of-order stamps, and a missing
	// trailer.
	rsp := func(seq uint64, status byte, val string) []byte {
		b := make([]byte, rsp3HdrLen, rsp3HdrLen+len(val))
		binary.LittleEndian.PutUint64(b[0:8], seq)
		b[8] = status
		binary.LittleEndian.PutUint32(b[9:13], uint32(len(val)))
		return append(b, val...)
	}
	ok := rsp(1, statusOK, "v")
	f.Add(ok, false)
	f.Add(rsp(1, statusNotFound, ""), false)
	f.Add(rsp(1, statusError, "boom"), false)
	f.Add(rsp(1, statusTransient, "later"), false)
	f.Add(ok[:5], false)
	huge := rsp(1, statusOK, "")
	binary.LittleEndian.PutUint32(huge[9:13], 0xFFFFFFFF)
	f.Add(huge, false)
	f.Add(rsp(99, statusOK, ""), false)
	f.Add(appendTraceTrailer(append([]byte(nil), ok...), 10, 20), true)
	f.Add(appendTraceTrailer(append([]byte(nil), ok...), 20, 10), true)
	f.Add(ok, true)

	f.Fuzz(func(t *testing.T, data []byte, traced bool) {
		server, clientSide := net.Pipe()
		dialed := false
		dialer := func(addr string) (net.Conn, error) {
			if dialed {
				return nil, errors.New("the pipe can only be dialed once")
			}
			dialed = true
			return clientSide, nil
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer server.Close()
			server.SetDeadline(time.Now().Add(2 * time.Second))
			// Consume the hello and the first batch, then answer with the
			// fuzz bytes and hang up.
			hello := make([]byte, helloLen)
			if _, err := io.ReadFull(server, hello); err != nil {
				return
			}
			if _, err := readBatch(server); err != nil {
				return
			}
			server.Write(data)
		}()

		cli, err := DialPipeline("fuzz", PipelineOptions{
			Dialer:  dialer,
			Redials: -1,
			Timeout: 500 * time.Millisecond,
			Traced:  traced,
		})
		if err == nil {
			// Any outcome is fine as long as it returns.
			cli.Get([]byte("k"))
			cli.Close()
		}
		clientSide.Close()
		<-done
	})
}

// FuzzTraceTrailer throws arbitrary bytes at the trace-trailer decoder
// (it must reject without panicking) and round-trips every in-order
// stamp pair through append/decode.
func FuzzTraceTrailer(f *testing.F) {
	f.Add([]byte{}, int64(0), int64(0))
	f.Add(make([]byte, traceTrailerLen), int64(1), int64(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, int64(5), int64(5))
	f.Fuzz(func(t *testing.T, raw []byte, a, b int64) {
		// Arbitrary input: any outcome but a panic is fine, and success
		// implies the invariants the client relies on.
		if start, end, err := decodeTraceTrailer(raw); err == nil {
			if len(raw) != traceTrailerLen {
				t.Fatalf("decoded a %d-byte trailer", len(raw))
			}
			if start < 0 || end < start {
				t.Fatalf("accepted out-of-order stamps %d..%d", start, end)
			}
		}
		// Round trip: every valid stamp pair survives append/decode. The
		// sign-bit mask (not negation, which overflows on MinInt64) maps
		// arbitrary fuzz inputs onto the valid non-negative stamp domain.
		lo, hi := a&(1<<63-1), b&(1<<63-1)
		if hi < lo {
			lo, hi = hi, lo
		}
		enc := appendTraceTrailer(nil, lo, hi)
		start, end, err := decodeTraceTrailer(enc)
		if err != nil {
			t.Fatalf("round trip %d..%d: %v", lo, hi, err)
		}
		if start != lo || end != hi {
			t.Fatalf("round trip %d..%d = %d..%d", lo, hi, start, end)
		}
	})
}

// Package remote implements the paper's §8 extension: external state
// management. A Server exposes any kv.Store over TCP, and
// PipelinedClient implements kv.Store over that wire — so the same
// harness that drives embedded stores can evaluate a decoupled
// compute/state deployment (multiple workload generator instances
// against one shared remote store, or a sharded fleet of them; see
// package shard, whose Client is what the "remote" engine opens, with
// one shard for a bare address).
//
// The package is split into three layers:
//
//   - protocol.go — the wire codec: frame layouts, size limits, and the
//     encode/decode helpers shared by both ends.
//   - server.go — Server, which keeps the per-session replay state that
//     makes reconnects exactly-once.
//   - pipeline.go — PipelinedClient: many in-flight requests per
//     connection, coalesced into batch frames, with responses matched
//     by sequence number in any order. At Depth 1 it degrades to one
//     request in flight.
//
// The wire speaks protocol v3 only (all integers little-endian); a hello
// naming any other version is closed without a reply:
//
//	hello:    magic u32 | version u8 (=3) | sessionID u64
//	batch:    count u32 | payloadLen u32 | count × request
//	request:  seq u64 | op u8 | keyLen u32 | valLen u32 | key | val
//	response: seq u64 | status u8 | valLen u32 | val [| trace trailer]
//
// status: 0 = ok, 1 = not found, 2 = error (val holds the message),
// 3 = transient error (retry-safe: the store did not apply the op). The
// version byte's top bit asks for the 16-byte trace trailer
// (handle-start u64 | handle-end u64, server-monotonic ns) on every
// response of that connection.
//
// The session/sequence layer makes reconnect replay exactly-once: a
// client re-dials a broken connection, re-sends its hello with the same
// session ID, and retransmits every request it has not seen answered,
// in sequence order; the server deduplicates by sequence against a
// bounded window of cached responses and answers replays from the cache
// instead of re-applying them. A request the client ultimately cannot
// confirm surfaces as a transient, outcome-unknown error, which the kv
// resilience layer retries only for idempotent ops.
package remote

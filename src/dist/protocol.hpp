// Wire protocol of the distributed batch fleet (`svlc coordinator` /
// `svlc worker`), schema tag svlc-dist/v1 — JSON-RPC 2.0 messages
// (serve/protocol.hpp) over the same Content-Length framing as `svlc
// serve` (support/net.hpp). The coordinator is the server; workers are
// blocking clients that poll for work, so the coordinator never blocks
// on a slow worker and a worker never holds an open request while it
// verifies.
//
// Methods (all worker → coordinator):
//
//   register  {schema, version, worker}
//             → {worker_id, jobs, options{classic,no_hold,solver},
//                timeout_ms}
//             Tool-version mismatch is an error: fingerprints would
//             diverge and stores could not be pooled.
//   lease     {worker_id}
//             → {state:"job", lease, name, source, top, timeout_ms,
//                fingerprint, hunt?}
//             `hunt` (absent for check jobs) is a search depth: the
//             worker runs the bounded symbolic leak hunter (src/hunt)
//             instead of the checker. Hunt jobs ship an empty
//             fingerprint and bypass every store path on both sides —
//             the fingerprint does not cover hunt parameters, so hunt
//             outcomes and check verdicts must never alias.
//             | {state:"wait", backoff_ms}   (work exists, none leasable)
//             | {state:"done"}               (every job decided)
//             Shard affinity: jobs whose fingerprint hashes to this
//             worker's shard are preferred; when a worker's own shard is
//             drained it steals from any pending shard, and when nothing
//             is pending it may be handed a duplicate lease on the
//             longest-running in-flight job (straggler steal).
//   result    {worker_id, lease, name, fingerprint, status,
//              verdict(hex), queries, syntactic, diagnostics}
//             → {accepted, duplicate}
//             `verdict` is the canonical incr store payload
//             (encode_stored_verdict), hex-encoded because store bytes
//             are not UTF-8-safe JSON. First result per job wins; a
//             late duplicate (from a steal or an expired lease) is
//             acknowledged but discarded.
//   sync      {worker_id, verdicts:[fp...], obligations:[fp...]}
//             → {want_verdicts:[fp...], want_obligations:[fp...]}
//             Delta-sync handshake: a worker with a store offers the
//             fingerprints of its job verdicts and obligation records,
//             and the coordinator answers with only what it lacks.
//   push      {worker_id, verdicts:[{fp,data(hex)}...],
//              obligations:[{fp,data(hex)}...]}
//             → {verdicts_merged, obligations_merged, corrupt_skipped}
//             The offered records themselves. Corrupt entries (bad hex,
//             undecodable payload) are counted and skipped, never
//             fatal.
//   shutdown  {} → {ok}   (drops pending work; for operators, not
//             workers — workers drain via lease state:"done")
//
// Failure model: every lease carries a deadline; a lease whose deadline
// passes, or whose worker's connection dies, is re-queued with linear
// backoff and re-issued to the next caller. Only Secure/Rejected results
// retire a job; worker death never loses a job and duplicate results
// never double-report one (first-wins, keyed by job index).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace svlc::dist {

inline constexpr const char* kDistSchema = "svlc-dist/v1";

/// Lowercase hex of arbitrary bytes — the wire encoding for store
/// payloads, which are raw bytes (JsonWriter would lossily replace
/// non-UTF-8 sequences with U+FFFD).
std::string hex_encode(std::string_view bytes);
/// Inverse of hex_encode; false on odd length or a non-hex digit.
bool hex_decode(std::string_view hex, std::string& out);

} // namespace svlc::dist

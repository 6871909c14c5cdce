// Shard worker transport for sharded RID execution (DESIGN.md §11, §13).
//
// Every shard worker talks to the parent over a socket in the same frames,
// and one dispatcher-side *stream phase* turns them into per-attempt
// checkpoint files in the run directory and merges the worker's telemetry,
// so the supervisor's durability probe, heartbeat, resume, and bit-identity
// contract see one mechanism. Two launchers feed it:
//  * fork: the worker is a fork() over a socketpair(2) and inherits the
//    extracted forest — no `.ridg`, no re-extraction, no handshake;
//  * exec: the worker is a separate *program*, `ridnet_cli worker`, that
//    connects to a bound listener and receives everything over the wire —
//    the forest fingerprint, the `.ridg` to re-map, the resolved solve
//    configuration, and its tree list. It re-extracts the forest and
//    *verifies the fingerprint* (refusing instead of silently diverging)
//    before it joins the stream phase.
// Either way the worker solves its trees serially in shard order and sends
// each one as a kRecord frame whose payload is byte-for-byte a checkpoint
// record, then kTelemetry and kDone. The supervisor drains a reaped
// worker's stream before it probes durability.
//
// Message grammar (each message is one util::net frame; first payload byte
// is the type):
//
//   type               direction            body
//   ----               ---------            ----
//   kHello       = 1   worker -> dispatcher handshake v2: u32 protocol_min,
//                                           u32 protocol_max,
//                                           u64 binary_fingerprint,
//                                           u8 delivery_modes bitmask,
//                                           u32 shard_id, u32 attempt,
//                                           u64 worker_pid
//   kAssign      = 2   dispatcher -> worker WorkerAssignment (see encode_*)
//   kRecord      = 3   worker -> dispatcher checkpoint record payload
//                                           (verbatim)
//   kDone        = 4   worker -> dispatcher u64 records_streamed
//   kError       = 5   worker -> dispatcher length-prefixed message
//   kTelemetry   = 6   worker -> dispatcher util::telemetry payload (spans
//                                           + metrics; util/telemetry.hpp)
//   kChallenge   = 7   dispatcher -> worker 32-byte random nonce (sent only
//                                           when an auth token is set)
//   kAuth        = 8   worker -> dispatcher HMAC-SHA256(token,
//                                           nonce || hello body)
//   kReject      = 9   dispatcher -> worker u8 RejectCode, message — the
//                                           typed fail-closed verdict
//   kGraphRequest= 10  worker -> dispatcher (empty) "ship me the graph"
//   kGraphChunk  = 11  dispatcher -> worker u8 last, u64 offset, raw bytes
//
// Handshake v2 (DESIGN.md §16): the hello advertises the protocol version
// range this worker speaks, a fingerprint of its wire-protocol constants
// (so two binaries that would disagree about bytes refuse each other), and
// the graph-delivery modes it supports. A skewed or unauthorized worker is
// answered with one kReject frame and never sees a kAssign; the worker
// maps kReject to a distinct exit code (kExitHandshakeRejected) so the
// supervisor can tell "misconfigured fleet" from "worker crashed". When
// the dispatcher has a shared-secret token (--auth-token/RID_AUTH_TOKEN)
// it interposes a challenge: the worker must return HMAC-SHA256 over
// nonce || hello before any assignment flows (util/hmac.hpp).
//
// Graph delivery: a worker that shares a filesystem with the dispatcher
// opens WorkerAssignment::graph_path directly (mode kDeliveryShared); a
// remote worker negotiates kDeliveryStream and pulls the `.ridg` through
// kGraphRequest/kGraphChunk into a content-addressed cache directory
// (file name = data fingerprint hex, atomic tmp+rename). Either way the
// worker verifies the mapped file's data fingerprint against the
// assignment before computing — a stale cache entry or divergent shared
// path fails closed, never silently.
//
// Fault semantics: any damaged, torn, or missing frame ends the attempt —
// the dispatcher drops the connection, the worker exits nonzero (or is
// SIGKILLed by the supervisor's heartbeat), and the supervisor requeues the
// shard with backoff exactly as it would a worker crash. Records already
// appended are durable; nothing is ever un-persisted. Worker
// connects retry with capped exponential backoff + deterministic jitter
// under a connect deadline (a daemon mid-restart is a retry, not a loss).
//
// The one exception is kTelemetry (sent once, right before kDone): it is
// best-effort observability, never part of the result. A damaged or
// mismatched telemetry payload bumps "telemetry.damaged", logs an event,
// and the stream continues — detection output is bit-identical with
// telemetry present, absent, or damaged (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/rid.hpp"
#include "util/net.hpp"
#include "util/proc_supervisor.hpp"

namespace rid::core {

enum class WireMessage : std::uint8_t {
  kHello = 1,
  kAssign = 2,
  kRecord = 3,
  kDone = 4,
  kError = 5,
  kTelemetry = 6,
  kChallenge = 7,
  kAuth = 8,
  kReject = 9,
  kGraphRequest = 10,
  kGraphChunk = 11,
};

/// Why a handshake was refused (the byte inside a kReject frame).
enum class RejectCode : std::uint8_t {
  kVersionSkew = 1,   // no protocol version in common
  kBinarySkew = 2,    // wire-constant fingerprints disagree
  kAuthFailed = 3,    // challenge unanswered or MAC mismatch
  kUnknownShard = 4,  // hello for a shard this dispatcher never launched
  kNoDelivery = 5,    // no graph-delivery mode in common
};

const char* to_string(RejectCode code) noexcept;

/// Worker process exit code for a typed kReject (auth failure or
/// version/fingerprint skew): distinct from crash-style exits so operators
/// and the supervisor can tell "misconfigured fleet" from "worker died".
/// Mirrored in the ridnet_cli exit-code table.
constexpr int kExitHandshakeRejected = 7;

/// Graph-delivery capability bits advertised in the hello.
constexpr std::uint8_t kDeliveryShared = 1;  // worker can open graph_path
constexpr std::uint8_t kDeliveryStream = 2;  // worker wants kGraphChunk s

/// Fingerprint of this build's wire-protocol constants. Two binaries whose
/// fingerprints differ would disagree about bytes on the wire, so the
/// handshake refuses the pairing. The RID_WORKER_BINARY_FINGERPRINT /
/// RID_WORKER_PROTOCOL environment variables override the *worker-side*
/// advertisement only — the sanctioned hook for skew drills.
std::uint64_t protocol_binary_fingerprint();

/// Everything a socket worker needs to reproduce the parent's solve
/// bit-identically: the snapshot to re-map, the forest identity to verify,
/// and the fully *resolved* solve configuration (thread counts already
/// substituted — a worker must not re-derive anything from its own
/// environment).
struct WorkerAssignment {
  std::uint64_t fingerprint = 0;
  /// Job/trace id stamped by the dispatcher and echoed back in the worker's
  /// kTelemetry frame (a stale worker's telemetry must not pollute another
  /// job's trace). 0 = untagged batch run.
  std::uint64_t trace_id = 0;
  /// Whether the worker should record spans and report telemetry (set when
  /// the parent itself is tracing; always safe to leave on — a
  /// RID_TRACING=OFF worker just reports metrics only).
  bool collect_trace = false;
  std::string graph_path;  // .ridg with an embedded state snapshot
  /// Data fingerprint of the `.ridg` (FNV-1a64 over its payload bytes;
  /// graph/columnar.hpp). The worker verifies whatever file it maps —
  /// shared path or shipped cache entry — against this before computing.
  std::uint64_t graph_fingerprint = 0;
  /// Negotiated delivery mode for this connection: kDeliveryShared or
  /// kDeliveryStream (exactly one bit).
  std::uint8_t delivery = kDeliveryShared;
  double beta = 0.1;
  TreeDpOptions dp;              // budget pointer not serialized
  ExtractionConfig extraction;   // budget pointer not serialized
  util::WorkBudget budget;       // cancel token not serialized
  std::vector<std::size_t> items;
};

/// Assignment body (en/de)coding — the bytes after the kAssign type byte.
/// decode throws util::InputError on truncation or version skew.
std::string encode_assignment(const WorkerAssignment& assignment);
WorkerAssignment decode_assignment(std::string_view body);

/// Dispatcher-side security/shipping knobs for exec'd workers (everything
/// that must NOT ride inside the serialized assignment).
struct DispatcherOptions {
  /// Shared secret for the HMAC challenge; empty = no challenge is sent
  /// (trusted single-host deployments). Exported to fork+exec'd workers via
  /// the RID_AUTH_TOKEN environment variable, never argv.
  std::string auth_token;
  /// When non-empty, fork+exec'd workers get `--graph-cache-dir=DIR` so a
  /// streamed delivery negotiation has somewhere to land the graph.
  std::string graph_cache_dir;
};

/// Dispatcher side of the shard transport, owned by the sharded runner for
/// the duration of its supervise_shards() calls. Runs one stream phase per
/// worker attempt on a background thread, appending the worker's records
/// to a fresh per-attempt checkpoint file under `run_dir`
/// (`shard-<id>-p<worker pid>-a<attempt>.ckpt`).
///
/// Failpoints: `net.worker_exec` fires in the exec launcher before forking
/// the worker (a `throw` action models exec failure — the supervisor sees
/// launch failure and requeues); `checkpoint.append` and
/// `net.telemetry_frame` fire in the stream phase; `net.accept`,
/// `net.frame_read`, `net.frame_write`, `net.torn_frame` fire in util/net.
class SocketDispatcher {
 public:
  /// A dispatcher for the fork launcher only: binds nothing.
  /// `assignment_template` carries everything but the per-shard item list.
  SocketDispatcher(std::string run_dir, WorkerAssignment assignment_template);
  /// A dispatcher that also serves exec'd workers: binds `endpoint`
  /// immediately (throws util::InputError when it cannot be bound) and
  /// accepts their connections on a background thread. The template's
  /// graph fingerprint is resolved from graph_path here when left 0.
  SocketDispatcher(const util::net::Endpoint& endpoint, std::string run_dir,
                   WorkerAssignment assignment_template,
                   DispatcherOptions options = {});
  ~SocketDispatcher();
  SocketDispatcher(const SocketDispatcher&) = delete;
  SocketDispatcher& operator=(const SocketDispatcher&) = delete;

  /// The endpoint actually bound (ephemeral tcp ports resolved).
  const util::net::Endpoint& endpoint() const;

  /// Exec launcher (needs the binding constructor): registers the
  /// attempt's items, then fork+execs `worker_command worker --connect
  /// <endpoint> --shard <id> --attempt <n>`, which handshakes and then
  /// joins the stream phase. Returns -1 (launch failure) when the fork
  /// fails or the `net.worker_exec` failpoint throws; exec failure inside
  /// the child exits 127 (a crash to the supervisor). The returned launcher
  /// borrows this dispatcher — it must not outlive it.
  util::ShardLauncher launcher(std::string worker_command,
                               const util::SupervisorOptions& options);

  /// Fork launcher: forks a worker over a socketpair(2) and starts the
  /// stream phase on the parent's end. The child applies the rlimits,
  /// resets its metrics, restarts the trace, and runs the per-tree loop
  /// over `forest` (which it inherits; it must outlive the launcher), then
  /// leaves through _exit (99 when an exception escapes). Borrows this
  /// dispatcher like launcher().
  util::ShardLauncher fork_launcher(const CascadeForest& forest,
                                    const util::SupervisorOptions& options);

  /// Human-readable transport events (handshake oddities, damaged frames,
  /// refused workers) for RunDiagnostics::shard_events. Drains the log.
  std::vector<std::string> take_events();

  /// Completed handshakes since construction (an exec'd worker got past
  /// hello + challenge and received kAssign). The sharded runner's
  /// grace-budget watchdog reads this to decide whether the exec transport
  /// is alive at all before falling back to the fork launcher.
  std::uint64_t handshakes_completed() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Worker-side knobs for `ridnet_cli worker` (flags + environment; see the
/// CLI header comment for the mapping).
struct WorkerOptions {
  std::string auth_token;       // empty = cannot answer a challenge
  std::string graph_cache_dir;  // empty = streamed delivery unavailable
  /// Delivery policy: "auto" (advertise everything possible), "shared"
  /// (graph_path only), "stream" (force shipping even on one host — what
  /// the CI drill uses to exercise the cache on localhost).
  std::string delivery = "auto";
  /// Total budget for connect retries (capped exponential backoff with
  /// deterministic jitter inside it) before the worker gives up.
  double connect_deadline_seconds = 15.0;
  /// Per-phase deadline for handshake and graph-chunk frames.
  double handshake_timeout_seconds = 30.0;
};

/// Worker side, implementing `ridnet_cli worker`: connect to the
/// dispatcher (with retry/backoff under the connect deadline), handshake
/// v2 (+ HMAC challenge when the dispatcher demands it), acquire the graph
/// (shared path or shipped cache), re-extract + verify the forest, then run
/// the same per-tree loop a forked worker runs. Returns the process exit
/// code: 0 = every assigned tree was streamed; kExitHandshakeRejected =
/// typed kReject (do not retry the same pairing); anything else is a
/// worker loss the supervisor requeues. Never throws.
int run_socket_worker(const std::string& endpoint_text, std::size_t shard_id,
                      std::uint32_t attempt,
                      const WorkerOptions& options = {});

}  // namespace rid::core

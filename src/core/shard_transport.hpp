// Shard worker transport for sharded RID execution (DESIGN.md §11, §13).
//
// Every shard worker talks to the parent over a socket in the same frames,
// and one dispatcher-side *stream phase* appends their records to
// per-attempt checkpoint files in the run directory (read only on resume),
// publishes each appended record to the table that the durability probe
// and the merge read, and merges worker telemetry. Two launchers feed it:
//  * fork: the worker is a fork() over a socketpair(2) and inherits the
//    extracted forest — nothing is encoded, no handshake;
//  * exec: the worker is a separate *program*, `ridnet_cli worker`, that
//    connects to a bound listener and receives everything over the wire —
//    the resolved solve configuration and the trees of its attempt, as the
//    parent extracted them (masked and repaired). It needs no graph file
//    and extracts nothing.
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
//   kHello       = 1   worker -> dispatcher handshake: u32 protocol_min,
//                                           u32 protocol_max,
//                                           u64 binary_fingerprint,
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
//
// Handshake (DESIGN.md §16): the hello advertises the protocol version
// range this worker speaks and a fingerprint of its wire-protocol
// constants (so two binaries that would disagree about bytes refuse each
// other). A skewed or unauthorized worker is answered with one kReject
// frame and never sees a kAssign; the worker maps kReject to a distinct
// exit code (kExitHandshakeRejected) so the supervisor can tell
// "misconfigured fleet" from "worker crashed". When the dispatcher has a
// shared-secret token (--auth-token/RID_AUTH_TOKEN) it interposes a
// challenge: the worker must return HMAC-SHA256 over nonce || hello before
// any assignment flows (util/hmac.hpp).
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
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
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
};

/// Why a handshake was refused (the byte inside a kReject frame).
enum class RejectCode : std::uint8_t {
  kVersionSkew = 1,   // no protocol version in common
  kBinarySkew = 2,    // wire-constant fingerprints disagree
  kAuthFailed = 3,    // challenge unanswered or MAC mismatch
  kUnknownShard = 4,  // hello for a shard this dispatcher never launched
};

const char* to_string(RejectCode code) noexcept;

/// Worker process exit code for a typed kReject (auth failure or
/// version/fingerprint skew): distinct from crash-style exits so operators
/// and the supervisor can tell "misconfigured fleet" from "worker died".
/// Mirrored in the ridnet_cli exit-code table.
constexpr int kExitHandshakeRejected = 7;

/// Fingerprint of this build's wire-protocol constants. Two binaries whose
/// fingerprints differ would disagree about bytes on the wire, so the
/// handshake refuses the pairing. The RID_WORKER_BINARY_FINGERPRINT /
/// RID_WORKER_PROTOCOL environment variables override the *worker-side*
/// advertisement only — the sanctioned hook for skew drills.
std::uint64_t protocol_binary_fingerprint();

/// Everything a socket worker needs to reproduce the parent's solve
/// bit-identically: the fully *resolved* solve configuration (a worker must
/// not re-derive anything from its own environment) and the trees to solve.
struct WorkerAssignment {
  /// Job/trace id stamped by the dispatcher and echoed back in the worker's
  /// kTelemetry frame (a stale worker's telemetry must not pollute another
  /// job's trace). 0 = untagged batch run.
  std::uint64_t trace_id = 0;
  /// Whether the worker should record spans and report telemetry (set when
  /// the parent itself is tracing; always safe to leave on — a
  /// RID_TRACING=OFF worker just reports metrics only).
  bool collect_trace = false;
  double beta = 0.1;
  TreeDpOptions dp;         // budget pointer and num_threads not serialized
  util::WorkBudget budget;  // cancel token not serialized
  /// Forest indices of the attempt's trees, in the order they are solved.
  std::vector<std::size_t> items;
  /// The trees themselves, trees[i] being forest tree items[i]. Empty in
  /// the dispatcher's template; the exec launcher fills them per attempt.
  std::vector<CascadeTree> trees;
};

/// Assignment body (en/de)coding — the bytes after the kAssign type byte.
/// decode throws util::InputError on truncation, version skew, or a tree
/// the solver could not trust (see DESIGN.md §16 for the checks).
std::string encode_assignment(const WorkerAssignment& assignment);
WorkerAssignment decode_assignment(std::string_view body);

/// Dispatcher side of the shard transport, owned by the sharded runner for
/// the duration of its supervise_shards() calls. Runs one stream phase per
/// worker attempt on a background thread, appending the worker's records
/// to a fresh per-attempt checkpoint file under `run_dir`
/// (`shard-<id>-p<worker pid>-a<attempt>.ckpt`), then publishing each to
/// the table behind durable() and take_records() (first per tree wins).
///
/// Failpoints: `net.worker_exec` fires in the exec launcher before forking
/// the worker (a `throw` action models exec failure — the supervisor sees
/// launch failure and requeues); `checkpoint.append` and
/// `net.telemetry_frame` fire in the stream phase; `net.accept`,
/// `net.frame_read`, `net.frame_write`, `net.torn_frame` fire in util/net.
class SocketDispatcher {
 public:
  /// A dispatcher for the fork launcher only: binds nothing. Checkpoint
  /// files carry `fingerprint` (the forest's, core/checkpoint.hpp);
  /// `assignment_template` carries everything but the per-attempt items
  /// and trees.
  SocketDispatcher(std::string run_dir, std::uint64_t fingerprint,
                   WorkerAssignment assignment_template);
  /// A dispatcher that also serves exec'd workers: binds `endpoint`
  /// immediately (throws util::InputError when it cannot be bound) and
  /// accepts their connections on a background thread. A non-empty
  /// `auth_token` is the shared secret of the HMAC challenge; it is
  /// exported to fork+exec'd workers via RID_AUTH_TOKEN, never argv.
  SocketDispatcher(const util::net::Endpoint& endpoint, std::string run_dir,
                   std::uint64_t fingerprint,
                   WorkerAssignment assignment_template,
                   std::string auth_token = {});
  ~SocketDispatcher();
  SocketDispatcher(const SocketDispatcher&) = delete;
  SocketDispatcher& operator=(const SocketDispatcher&) = delete;

  /// The endpoint actually bound (ephemeral tcp ports resolved).
  const util::net::Endpoint& endpoint() const;

  /// Exec launcher (needs the binding constructor): registers the
  /// attempt's items, then fork+execs `worker_command worker --connect
  /// <endpoint> --shard <id> --attempt <n>`, which handshakes, receives
  /// those items' trees from `forest` in its kAssign, and then joins the
  /// stream phase. Returns -1 (launch failure) when the fork fails or the
  /// `net.worker_exec` failpoint throws; exec failure inside the child
  /// exits 127 (a crash to the supervisor). The returned launcher borrows
  /// this dispatcher and `forest` — it must outlive neither.
  util::ShardLauncher launcher(const CascadeForest& forest,
                               std::string worker_command,
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

  /// The records published since the last call, by tree index. Drains the
  /// table, so durable() is false again for the trees it returns.
  std::map<std::uint64_t, TreeCheckpointRecord> take_records();

  /// Completed handshakes since construction (an exec'd worker got past
  /// hello + challenge and received kAssign). The sharded runner's
  /// grace-budget watchdog reads this to decide whether the exec transport
  /// is alive at all before falling back to the fork launcher.
  std::uint64_t handshakes_completed() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Worker side, implementing `ridnet_cli worker`: connect to the
/// dispatcher (with retry/backoff under the connect deadline), handshake
/// (+ HMAC challenge when the dispatcher demands it), decode the assigned
/// trees, then run the same per-tree loop a forked worker runs. The shared
/// secret comes from RID_AUTH_TOKEN (unset = cannot answer a challenge),
/// the connect deadline (15 s) from RID_CONNECT_DEADLINE and the per-frame
/// handshake deadline (30 s, the kAssign included) from
/// RID_HANDSHAKE_TIMEOUT. Returns the process exit code: 0 = every assigned
/// tree was streamed; kExitHandshakeRejected = typed kReject (do not retry
/// the same pairing); 3 = an assignment that does not decode; anything else
/// is a worker loss the supervisor requeues. Never throws.
int run_socket_worker(const std::string& endpoint_text, std::size_t shard_id,
                      std::uint32_t attempt);

}  // namespace rid::core

// opindyn serve: a long-running job-stream service over the shared
// scheduler and the process-lifetime caches.
//
// Protocol (schema "opindyn-serve-v1", one JSON record per line):
//   client -> server   one job per line, either the spec grammar
//                      ("scenario=node n=1024 replicas=8 ...") or a flat
//                      JSON object with the same keys; `deadline_ms` is
//                      a serve-layer envelope key, not a spec key.
//   server -> client   {"event":"ready",...} once per session, then one
//                      record per job in COMPLETION order:
//                        {"job":N,"status":"ok",...}
//                        {"job":N,"status":"error","error":"..."}
//                        {"job":N,"status":"rejected","reason":"..."}
//                        {"job":N,"status":"cancelled","reason":"..."}
//                      and a final {"event":"shutdown",...} summary.
//
// Design invariants the tests pin down:
//   * fault isolation -- a malformed, throwing or over-long
//     (kMaxLineBytes) job line yields exactly one `error` record; the
//     server and every other in-flight job proceed.
//   * determinism -- an `ok` job's output files are byte-identical to
//     the one-shot CLI at any thread count (shared scheduler included).
//   * bounded admission -- a full queue answers `rejected` immediately
//     (explicit backpressure) instead of buffering without limit.
//   * cooperative deadlines -- `deadline_ms` counts from admission and
//     cancels between kernel bursts only: a cancelled job reports
//     `cancelled` and writes no partial golden bytes.
//   * graceful drain -- SIGTERM/SIGINT stops admission, finishes or
//     cancels in-flight jobs within the drain timeout, flushes sinks
//     and emits the shutdown summary.
//
// This file (with job_queue) is the only service layer allowed to read
// clocks; tokens/specs below it stay clock-free (opindyn-lint enforces
// the split).
#ifndef OPINDYN_SERVICE_SERVER_H
#define OPINDYN_SERVICE_SERVER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "src/support/cache_limits.h"

namespace opindyn {
namespace service {

/// Upper bound on any deadline_ms (about a century).  Keeps the
/// admission-time stamp `now_us() + deadline_ms * 1000` far from int64
/// overflow, where a huge client-supplied deadline would wrap negative
/// (signed-overflow UB) and silently disable itself.
inline constexpr std::int64_t kMaxDeadlineMs =
    std::int64_t{86'400'000} * 365 * 100;

/// Longest job line accepted, in bytes (newline excluded).  A longer
/// line gets one `error` record citing this limit; its remainder is read
/// and discarded without being buffered, so one huge line cannot
/// exhaust memory, and the next line is served normally.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

struct ServeOptions {
  /// Admission queue depth; a push beyond it is rejected with a record,
  /// never buffered.
  std::size_t queue_depth = 16;
  /// Concurrent jobs (worker threads popping the queue).
  std::size_t job_workers = 2;
  /// Simulation pool size shared by every job; 0 = hardware threads.
  /// A job's own threads= key is ignored (the shared pool wins; the
  /// output bytes are identical either way).
  std::size_t threads = 0;
  /// After a shutdown request, how long in-flight and queued jobs get
  /// to finish before they are cancelled; < 0 waits forever.
  std::int64_t drain_timeout_ms = 5000;
  /// Deadline applied to jobs that do not carry deadline_ms; 0 = none.
  std::int64_t default_deadline_ms = 0;
  /// Process-lifetime cache bounds (0 = unlimited); see CacheLimits.
  CacheLimits graph_cache_limits{64, 256ull << 20};
  CacheLimits spectrum_cache_limits{64, 64ull << 20};
  /// Unix socket path for serve_socket().
  std::string socket_path;
  /// Latest signal number received (written by the CLI's SIGTERM/SIGINT
  /// handlers); the serve loops poll it and start the drain when it
  /// becomes non-zero.  nullptr = only request_shutdown() stops us.
  const std::atomic<int>* signal_flag = nullptr;
};

/// The service: owns the bounded caches, the shared CellScheduler, the
/// admission queue, the job workers and the deadline monitor.  One
/// instance per process; sessions (stdin, a stream pair, or socket
/// connections) borrow it serially, so caches stay warm across clients.
class JobStreamService {
 public:
  explicit JobStreamService(ServeOptions options);
  ~JobStreamService();

  JobStreamService(const JobStreamService&) = delete;
  JobStreamService& operator=(const JobStreamService&) = delete;

  /// Runs one full session over a stream pair and shuts the service
  /// down at EOF (or at request_shutdown from another thread).  Returns
  /// the process exit code.  Used by tests and by pipes.
  int serve_stream(std::istream& in, std::ostream& out);

  /// As serve_stream over fd 0 / stdout, but poll()-driven so a signal
  /// arriving while idle is noticed within ~100 ms.
  int serve_stdin();

  /// Listens on options.socket_path and serves connections one at a
  /// time until a shutdown request; each connection is a session (ready
  /// record, job records, and on the final connection the summary).
  int serve_socket();

  /// Starts the same drain a SIGTERM would; `reason` must outlive the
  /// service (string literals).  Safe from any thread, NOT from signal
  /// handlers (those should write ServeOptions::signal_flag instead).
  void request_shutdown(const char* reason);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace service
}  // namespace opindyn

#endif  // OPINDYN_SERVICE_SERVER_H

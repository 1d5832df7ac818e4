// The long-lived equivalence-checking daemon behind `qsimec serve`.
//
// A Daemon owns the expensive state a one-shot `qsimec batch` rebuilds from
// scratch on every invocation — the verdict cache, the worker pool (and its
// flight-recorder heartbeat slots), the metrics registry, the journal — and
// amortizes it across requests arriving on a unix-domain socket and/or a
// watched spool directory. Three threads cooperate:
//
//   acceptor  owns the listening socket. Reads one request per connection
//             (docs/daemon.md has the wire format), answers status /
//             metrics / ping / shutdown inline, and runs admission control
//             for submits: a manifest that does not parse and a full
//             queue are immediate, explicit `manifest` and `overload`
//             error lines — never a silent hang. Admitted
//             requests join the priority queue with their connection
//             attached; the response is written when the engine gets to
//             them.
//   engine    drains the queue one request at a time (pairs inside a
//             request are the parallelism unit, via the resident
//             ec::WorkerPool handed to svc::BatchScheduler). Pick order:
//             lowest effective priority first, FIFO within a level, where
//             waiting requests age one level per agingSeconds so nothing
//             starves. Each request runs with the PR-9 stall watchdog
//             armed — a wedged pair resolves NoInformation (with a
//             postmortem dump reference) and the daemon moves on.
//   spool     polls SPOOL/in/*.jsonl, admitting files into the same queue
//             (client "spool") while there is room — a full queue simply
//             leaves files in place, so the directory is natural
//             backpressure. Results land in SPOOL/out/<name>.results.jsonl,
//             processed manifests move to SPOOL/done/, unparseable ones to
//             SPOOL/failed/ with a .error.txt beside them.
//
// Shutdown (SIGTERM relayed through DaemonOptions::stopFlag, a protocol
// `shutdown` request, or requestShutdown()) is a graceful drain: stop
// admitting, finish every admitted request, flush the cache append log,
// remove the socket file, and return from run(). The cache file makes
// warmth durable — a restarted daemon answers previously-proven pairs
// without dispatching any checker work.

#pragma once

#include "daemon/protocol.hpp"
#include "ec/flow.hpp"
#include "ec/parallel.hpp"
#include "obs/context.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "svc/batch.hpp"
#include "svc/verdict_cache.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace qsimec::daemon {

struct DaemonOptions {
  /// Unix-domain socket to listen on (required).
  std::string socketPath;
  /// Optional spool directory; in/ work/ out/ done/ failed/ are created
  /// underneath. Empty disables the spool thread.
  std::string spoolDir;
  /// Resident worker-pool size; 0 = one per hardware thread.
  unsigned threads{0};
  /// Verdict-cache persistence file: loaded on start (v1 and v2 lines),
  /// appended on every new proof. Empty = in-memory only.
  std::string cachePath;
  std::size_t cacheCapacity{4096};
  /// Admission control: submits beyond this many queued requests are
  /// rejected with an `overload` error line.
  std::size_t maxQueueDepth{64};
  /// Starvation-free aging: a queued request is treated as one priority
  /// level more urgent per this many seconds of waiting. 0 disables aging.
  double agingSeconds{10.0};
  /// Stall containment (svc::BatchOptions semantics): per-pair watchdog
  /// quiet window and hard deadline. The quiet window defaults on — a
  /// daemon must outlive any single wedged pair.
  double stallQuietSeconds{30.0};
  double pairDeadlineSeconds{0.0};
  /// Directory for stall postmortem dumps (empty = no dumps).
  std::string postmortemDir;
  /// Optional server-lifetime journal file (JSONL).
  std::string journalPath;
  /// Base flow configuration; manifest lines override per pair exactly as
  /// in `qsimec batch`.
  ec::FlowConfiguration base;
  double spoolPollSeconds{0.25};
  /// External stop request (level-triggered), typically set by the CLI's
  /// SIGTERM handler — the only signal-safe channel into the daemon. The
  /// acceptor polls it and converts it into a graceful drain.
  const std::atomic<bool>* stopFlag{nullptr};
};

/// Named rows of the status document's `clients` table. Any local peer
/// picks its own name, so the table is bounded: a name first seen once it
/// is full is counted in the overflow row instead.
inline constexpr std::size_t kMaxClientRows = 64;
/// The overflow row's key: the empty name, which no client can take (the
/// protocol gives an empty name the default `anonymous`).
inline constexpr char kOverflowClient[] = "";

/// One completed request, kept in a short ring for `qsimec status`.
struct RequestRecord {
  std::uint64_t id{0};
  std::string client;
  int priority{kDefaultPriority};
  std::string source; // "socket" | "spool"
  std::size_t pairs{0};
  std::size_t notEquivalent{0};
  std::size_t cacheHits{0};
  std::size_t dispatched{0};
  double seconds{0.0};
};

class Daemon {
public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind the socket, create the spool layout, and start the acceptor,
  /// engine, and spool threads. Throws on any setup failure.
  void start();

  /// Block until a graceful drain completes (start() is called if it has
  /// not been). All admitted requests are answered before this returns.
  void run();

  /// Begin the graceful drain: stop admitting, finish what was admitted.
  /// Thread-safe and idempotent; not signal-safe (use stopFlag for that).
  void requestShutdown();

  /// Hold the engine between requests (admission continues) — lets tests
  /// and operators stage a queue deterministically, then release it.
  /// A drain overrides a pause: requestShutdown() resumes the engine.
  void pauseEngine();
  void resumeEngine();

  /// The status document served over the socket, for in-process callers.
  [[nodiscard]] std::string statusJson() const;

  [[nodiscard]] std::uint64_t completedRequests() const;
  [[nodiscard]] std::uint64_t rejectedRequests() const;
  [[nodiscard]] const svc::VerdictCache& cache() const noexcept {
    return cache_;
  }

private:
  /// One admitted request waiting for (or undergoing) processing.
  struct PendingRequest {
    std::uint64_t id{0};
    RequestHeader header;
    svc::BatchManifest manifest; // parsed at admission
    Socket connection;     // invalid for spool requests
    std::string spoolName; // manifest file name for spool requests
    std::chrono::steady_clock::time_point enqueuedAt;
  };

  void acceptLoop();
  void engineLoop();
  void spoolLoop();
  void handleConnection(Socket connection);
  /// Admission control: a manifest that did not parse (`manifestError`
  /// non-empty), a drain or a full queue refuses the request with one error
  /// line; otherwise it joins the queue behind the accepted line.
  bool tryEnqueue(PendingRequest&& request, const std::string& manifestError);
  void processRequest(PendingRequest& request);
  void respondSpool(const PendingRequest& request,
                    const std::vector<std::string>& lines);
  [[nodiscard]] std::deque<PendingRequest>::iterator pickNextLocked();
  /// The `clients` row that counts `name`: its own while the table has
  /// room, else the kOverflowClient row.
  [[nodiscard]] obs::MetricsRegistry& clientRowLocked(const std::string& name);
  /// Every count goes through here: `record` is applied to the totals and
  /// to the client's row alike, so the rows add up to the totals.
  template <typename Record>
  void tallyLocked(const std::string& client, const Record& record) {
    record(metrics_);
    record(clientRowLocked(client));
  }
  [[nodiscard]] std::string statusJsonLocked() const;
  [[nodiscard]] std::string metricsTextLocked() const;

  DaemonOptions options_;
  obs::FlightRecorder flight_;
  svc::VerdictCache cache_;
  std::ofstream cacheStream_;
  obs::Journal journal_;
  std::ofstream journalStream_;
  /// The daemon's sinks: the journal only when journalPath is set. A
  /// request's copy adds its id, which its batch's lines carry too.
  obs::Context obs_;
  std::optional<ec::WorkerPool> pool_;
  Socket listenSocket_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  bool enginePaused_{false};
  bool draining_{false};
  bool engineDone_{false};
  bool started_{false};
  bool activeRequest_{false};
  std::string activeClient_;
  std::uint64_t nextRequestId_{1};
  /// At most kMaxClientRows named rows plus the overflow row; each receives
  /// what metrics_ receives for its client's requests.
  std::map<std::string, obs::MetricsRegistry> clients_;
  std::deque<RequestRecord> recent_; // newest first, capped
  /// Guarded by mutex_ (not thread-safe). Also the source of every status
  /// counter: `daemon.requests.*` and the batches' `svc.*` counters.
  obs::MetricsRegistry metrics_;
  std::chrono::steady_clock::time_point startedAt_;

  std::thread acceptThread_;
  std::thread engineThread_;
  std::thread spoolThread_;
};

} // namespace qsimec::daemon

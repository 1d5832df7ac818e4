// qsimec — command-line front end.
//
//   qsimec check A B [options]   equivalence-check two circuit files
//   qsimec batch MANIFEST        check a JSONL manifest of circuit pairs
//   qsimec serve [options]       long-lived checking daemon (socket + spool)
//   qsimec submit MANIFEST       send a manifest to a running daemon
//   qsimec status                query a running daemon (status / metrics)
//   qsimec shutdown              ask a running daemon to drain and exit
//   qsimec lint FILE [FILE2]     static analysis: report diagnostics
//   qsimec profile FILE [FILE2]  gate-set / tier profile without any checking
//   qsimec sim FILE [options]    simulate a circuit, print top amplitudes
//   qsimec info FILE             circuit statistics
//   qsimec convert IN OUT        convert between .qasm, .real and .tfc
//   qsimec gen FAMILY OUT        generate a benchmark circuit / the corpus
//   qsimec fuzz [options]        differential fuzzing against a dense oracle
//   qsimec bench-diff BASE CUR   compare two qsimec-bench-v1 reports
//   qsimec report FILE...        render run journals or a postmortem dump
//   qsimec metrics-export M.json metrics JSON -> OpenMetrics text
//
// Circuit files are read by extension: .qasm (OpenQASM 2.0), .real
// (RevLib), or .tfc (Maslov's reversible benchmark format). `check`
// implements the DAC'20 flow: r random-stimuli simulations, then the
// complete DD-based alternating check. `fuzz` differentially fuzzes the
// whole flow against a dense-simulation oracle (see docs/fuzzing.md).
//
// Exit codes: 0 equivalent (or no lint errors), 1 not equivalent,
// 2 usage/internal error, 3 inconclusive, 4 invalid input (lint errors,
// malformed circuit files), 5 daemon refused or unreachable.

#include "analysis/analyzer.hpp"
#include "analysis/prescreen.hpp"
#include "analysis/profile.hpp"
#include "daemon/client.hpp"
#include "daemon/server.hpp"
#include "dd/export.hpp"
#include "ec/error_localization.hpp"
#include "ec/flow.hpp"
#include "ec/serialize.hpp"
#include "ec/stimuli.hpp"
#include "fuzz/harness.hpp"
#include "gen/algorithms.hpp"
#include "gen/ansatz.hpp"
#include "gen/arithmetic.hpp"
#include "gen/chemistry.hpp"
#include "gen/corpus.hpp"
#include "gen/grover.hpp"
#include "gen/qft.hpp"
#include "gen/random_circuits.hpp"
#include "gen/revlib_like.hpp"
#include "gen/supremacy.hpp"
#include "io/parse.hpp"
#include "io/qasm.hpp"
#include "io/real.hpp"
#include "io/tfc.hpp"
#include "obs/bench_diff.hpp"
#include "obs/bench_report.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/openmetrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/run_report.hpp"
#include "obs/sampler.hpp"
#include "sim/dd_simulator.hpp"
#include "svc/batch.hpp"
#include "svc/verdict_cache.hpp"
#include "transform/decomposition.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace qsimec;

namespace {

[[noreturn]] void usage(int code) {
  std::cout <<
      R"(qsimec — simulation-first equivalence checking for quantum circuits
        (Burgholzer & Wille, DAC'20)

usage:
  qsimec check A.{qasm,real} B.{qasm,real} [options]
      --sims R              number of random stimuli (default 10; 0 = skip)
      --stimuli KIND        basis | product | stabilizer (default basis), or
                            the canonical computational-basis |
                            random-product | random-stabilizer
      --timeout SECONDS     budget of the complete check (default 60; 0 = none)
      --strategy NAME       naive | proportional | lookahead (default proportional)
      --threads N           worker threads for the stimuli runs (default 0 =
                            one per hardware thread; results are identical
                            for every N — see docs/parallelism.md)
      --race                run simulations and the complete check
                            concurrently; first conclusive verdict wins and
                            the loser is cancelled
      --sim-only            skip the complete check
      --strict-phase        do not treat global phase as equivalent
      --no-prescreen        skip the static prescreen and tier routing; every
                            pair takes the general simulation + DD path
      --no-attr             disable the per-gate cost attribution profiler
                            (attribution never changes verdicts; this only
                            drops the "attribution" blocks and attr.* journal
                            events — see docs/profiling.md)
      --localize            on non-equivalence, binary-search the diverging gate
      --json                emit the result as a JSON object (with per-stage
                            metrics and DD profile under "metrics")
      --metrics             print the metrics JSON after the human-readable
                            result (implied by --json)
      --trace FILE          write a Chrome trace_event file of the run
                            (open in about:tracing or ui.perfetto.dev)
      --journal FILE        write a structured JSONL run journal (stage
                            transitions, per-stimulus verdicts, GC pauses)
      --sample FILE         poll DD live nodes and unique-table fill (via the
                            flight recorder it implies), RSS and stimuli done;
                            write the time-series CSV here; with --trace the
                            samples also appear as Perfetto counter tracks
      --progress            live progress line on stderr
      --seed N              stimuli seed (default 42)
      --flight-recorder[=N] always-on bounded in-process flight recorder
                            (N events per thread ring, default 2048); its
                            health counters flight.events /
                            flight.events_dropped join the --json metrics
      --postmortem DIR      implies --flight-recorder; write a
                            qsimec-postmortem-v1 dump of the final recorder
                            state to DIR/postmortem-check.jsonl (reason
                            complete/timeout/cancelled) and arm an
                            async-signal-safe SIGSEGV/SIGABRT dump to
                            DIR/postmortem-signal.jsonl
      --postmortem-redact   restrict dumps to the deterministic subset
                            (byte-identical across thread counts)
  qsimec batch MANIFEST.jsonl [options]
      check every circuit pair of a JSONL manifest (one {"g": A, "gp": B}
      object per line, with optional per-pair overrides — see
      docs/service.md) against one shared worker pool
      --threads N           worker threads; one pair per worker (default 0 =
                            one per hardware thread). Results are reported
                            in manifest order and verdicts are identical
                            for every N
      --cache FILE          persistent verdict cache (JSONL): loaded on
                            start, appended on every new proof; cached
                            pairs are answered without any checker work
      --json                one qsimec-batch-v1 JSON object per pair plus a
                            summary object, in manifest order
      --journal FILE        structured JSONL run journal (pair starts,
                            verdicts, cache hits)
      --trace FILE          Chrome trace_event file of the batch
      --progress            live pair counter on stderr
      --stall-timeout S     watchdog: a dispatched pair whose worker
                            heartbeat stays quiet for S seconds is resolved
                            as NoInformation (stalled) and the batch goes on
                            — catches wedges the cancel-flag poll cannot
      --pair-deadline S     watchdog: hard wall-time ceiling per dispatched
                            pair, same stall resolution
      --flight-recorder[=N] in-process flight recorder (implied by the two
                            watchdog flags and by --postmortem)
      --postmortem DIR      per-stall dumps DIR/postmortem-pair-<i>.jsonl, a
                            final DIR/postmortem-batch.jsonl, and the armed
                            fatal-signal dump DIR/postmortem-signal.jsonl
      --postmortem-redact   restrict dumps to the deterministic subset
      (plus the check options --sims --stimuli --timeout --strategy --seed
       --race --sim-only --strict-phase --no-attr as the base
       configuration every manifest line starts from)
      exit codes mirror check over the whole batch: 1 if any pair is not
      equivalent, else 4 if any input was invalid, else 3 if any pair was
      inconclusive, else 0
  qsimec serve --socket PATH [options]
      long-lived checking daemon (see docs/daemon.md): one resident worker
      pool and one warm verdict cache amortized across every submitted
      manifest; JSONL requests over a unix-domain socket and/or a watched
      spool directory; graceful drain on SIGTERM / SIGINT / `qsimec
      shutdown` (finish admitted requests, flush the cache, exit 0)
      --socket PATH         unix-domain socket to listen on (required)
      --spool DIR           also watch DIR/in/*.jsonl for manifests;
                            results to DIR/out/, processed files to
                            DIR/done/, unparseable ones to DIR/failed/
      --threads N           resident worker-pool size (default 0 = one per
                            hardware thread)
      --cache FILE          persistent verdict cache, loaded on start and
                            appended on every new proof — warmth survives
                            restarts
      --cache-capacity N    in-memory cache entries (default 4096); beyond
                            it the cheapest-to-reprove entries are evicted
                            first
      --max-queue N         admission control: reject submits beyond N
                            queued requests with an `overload` error line
                            (default 64)
      --aging S             a queued request gains one priority level per S
                            seconds waited, so low priority never starves
                            (default 10; 0 disables)
      --stall-timeout S     per-pair stall watchdog quiet window (default
                            30; the daemon must outlive any wedged pair)
      --pair-deadline S     hard wall-time ceiling per dispatched pair
      --postmortem DIR      write stall postmortem dumps under DIR
      --journal FILE        server-lifetime JSONL journal
      (plus the check options --sims --stimuli --timeout --strategy --seed
       --race --sim-only --strict-phase --no-attr as the base
       configuration every manifest line starts from)
  qsimec submit MANIFEST.jsonl --socket PATH [options]
      send a batch manifest to a running daemon and print the result lines
      (pairs in manifest order, then the summary)
      --socket PATH         daemon socket (required)
      --client NAME         client label for the daemon's per-client
                            counters (default cli)
      --priority N          0 (most urgent) .. 3 (default 2); FIFO within a
                            level
      --redact              request the redacted verdict-only result form —
                            byte-identical between cold and warm runs
      --no-wait             return after the admission answer, abandoning
                            the results (fire-and-forget)
      --timeout S           per-read transport timeout (default 0 = none)
      exit codes mirror batch, plus 5 when the daemon rejected the request
      (overload / draining / unparseable manifest) or is unreachable
  qsimec status --socket PATH [--json | --metrics]
      one-line summary of a running daemon (queue depth, requests, cache);
      --json prints the raw qsimec-daemon-status-v1 document, --metrics the
      OpenMetrics exposition of the live registry
  qsimec shutdown --socket PATH
      ask the daemon to drain and exit; returns once acknowledged
  qsimec lint FILE [FILE2] [options]
      static circuit analysis (no simulation): structured diagnostics with
      rule IDs (see docs/static-analysis.md); with two files, pair-level
      rules (width mismatch, ...) run as well
      --errors-only         suppress the QL lint rules (errors/warnings only)
      --json                emit the diagnostics as a JSON object
  qsimec profile FILE [FILE2] [--json]
      static semantic profile, no simulation and no decision diagrams:
      gate-set class (clifford | clifford+t | general), control-arity
      histogram, Clifford-breaking gates; with two files also the pair
      prescreen (prefix/suffix cancellation, rotation merging) and the
      tier the check flow would route the pair to
  qsimec sim FILE [--input I] [--top K] [--seed N]
  qsimec info FILE
  qsimec convert IN OUT
  qsimec bench-diff BASELINE.json CURRENT.json [options]
      regression gate over two qsimec-bench-v1 reports (bench --json-out):
      verdict flips and deterministic-counter drift always fail; wall times
      fail beyond the tolerance; timed-out records are exempt
      --tolerance F         relative wall-time tolerance (default 0.25)
      --counter-tolerance F relative counter tolerance (default 0 = exact)
      --min-seconds S       times below this never regress (default 0.01)
  qsimec report RUN.jsonl [MORE.jsonl ...] [options]
  qsimec report DUMP.jsonl [options]
      the offline reader; the first line of the first file picks the form.
      Run journals (--journal of check, batch or serve), folded together:
      stage waterfall, tier routing with flow latency percentiles, verdict
      counts, the hottest gates by cost attribution, batch cache/dedup
      stats, latency percentiles (count, mean, p50/p90/p99) per event
      family (GC pauses included), event counts. A qsimec-postmortem-v1
      flight-recorder dump (--postmortem, stall and signal dumps), read
      alone: header, active pairs, stall attribution, hotspot at death,
      per-thread state, merged event timeline; exit 2 if the dump is
      unparseable (a truncated dump that still carries the header renders
      with a truncation warning instead)
      --trace FILE          journals only: also aggregate a --trace Chrome
                            trace file into a per-span-family table
      --out FILE            write to FILE instead of stdout; a .html
                            extension selects the self-contained HTML page,
                            anything else (and stdout) is Markdown
      --top N               rows kept in the hotspot/span tables (default 10)
  qsimec metrics-export METRICS.json [options]
      render a metrics JSON payload as OpenMetrics text (# TYPE/# HELP,
      counter _total, cumulative histogram buckets, terminating # EOF).
      Accepts a raw {"counters":...} object, a `check --json` result (its
      "metrics" member), or a qsimec-bench-v1 report (all records merged).
      The output is validated before it is written; exit 2 if it fails.
      --prefix NAME         metric name prefix (default qsimec)
      --out FILE            write to FILE instead of stdout
      --lint FILE           validate an existing OpenMetrics text file
                            instead of exporting: print issues, exit 4 if
                            any (the CI exposition gate; no positional
                            argument needed)
  qsimec gen FAMILY OUT.{qasm,real,tfc} [--seed N]
      families: qft N | qft-alt N | grover K | supremacy R C D |
                chemistry R C | hwb K | urf K | adder K | inc K | random N G |
                bv N | dj N | qpe M | ghz N | w N |
                modmul A N BITS | modadd C N BITS | cuccaro BITS | cmp BITS |
                hea N LAYERS | excitation N LAYERS | clifford N G
      (decompose first where the output format demands it: .real/.tfc accept
       only reversible gates, .qasm at most two controls)
  qsimec gen corpus OUTDIR [--seed N]
      emit the benchmark corpus: representative equivalent and error-injected
      pairs across the families in mixed .qasm/.real/.tfc formats, plus a
      JSONL manifest for `qsimec batch` and a corpus.json metadata sidecar
  qsimec fuzz [options]
      differential fuzzing: generated circuit pairs (equivalence-preserving
      rewrites, injected errors) run through the full flow matrix (prescreen
      on/off x strategies x 1/4 threads x staged/race), every verdict
      cross-checked against a dense-simulation oracle; disagreements are
      shrunk to 1-minimal reproducer JSONL lines (see docs/fuzzing.md).
      Output is byte-deterministic for a fixed seed.
      --seed N              generation seed (default 42)
      --pairs N             circuit pairs to generate (default 100)
      --min-qubits N        narrowest pair (default 3)
      --max-qubits N        widest pair (default 6, max 12)
      --max-gates N         base-circuit gate budget (default 28)
      --family NAME         general | clifford+t | clifford | reversible
      --timeout SECONDS     complete-check budget per flow run (default 60)
      --no-shrink           record disagreements without minimizing them
      --out DIR             write reproducers to DIR/reproducers.jsonl
                            instead of stdout
      --replay FILE.jsonl   re-check recorded reproducers instead of fuzzing
      --progress            live pair counter on stderr
      --flight-recorder[=N] in-process flight recorder: pair/cell marks name
                            the work in flight when a campaign crashes
      --postmortem DIR      implies --flight-recorder; final dump to
                            DIR/postmortem-fuzz.jsonl plus the armed
                            fatal-signal dump DIR/postmortem-signal.jsonl
      exit codes: 0 all verdicts agree / replay clean, 1 disagreements,
                  2 usage error

exit codes: 0 equivalent / lint clean / bench-diff pass, 1 not equivalent /
            bench-diff regression, 2 usage or internal error, 3 inconclusive,
            4 invalid input, 5 daemon refused or unreachable
)";
  std::exit(code);
}

struct ArgCursor {
  std::vector<std::string> args;
  std::size_t pos{0};

  [[nodiscard]] bool empty() const { return pos >= args.size(); }
  std::string next(const char* what) {
    if (empty()) {
      std::cerr << "missing " << what << "\n";
      usage(2);
    }
    return args[pos++];
  }
  [[nodiscard]] bool consumeFlag(const std::string& flag) {
    const auto it = std::find(args.begin() + static_cast<std::ptrdiff_t>(pos),
                              args.end(), flag);
    if (it == args.end()) {
      return false;
    }
    args.erase(it);
    return true;
  }
  [[nodiscard]] std::string consumeOption(const std::string& flag,
                                          std::string fallback) {
    const auto it = std::find(args.begin() + static_cast<std::ptrdiff_t>(pos),
                              args.end(), flag);
    if (it == args.end()) {
      return fallback;
    }
    if (it + 1 == args.end()) {
      std::cerr << "missing value for " << flag << "\n";
      usage(2);
    }
    std::string value = *(it + 1);
    args.erase(it, it + 2);
    return value;
  }
  /// Glued-value form "--flag=VALUE"; returns "" when absent.
  [[nodiscard]] std::string consumePrefixOption(const std::string& prefix) {
    for (auto it = args.begin() + static_cast<std::ptrdiff_t>(pos);
         it != args.end(); ++it) {
      if (it->starts_with(prefix)) {
        std::string value = it->substr(prefix.size());
        args.erase(it);
        return value;
      }
    }
    return {};
  }
};

/// Flow-configuration flags shared by `check`, `batch` and `serve`
/// (everything except --threads, whose meaning differs between them).
/// Returns 0 on success, 2 after complaining about a bad enum value. Each
/// caller consumes its own flags first, so a `--` argument still left here
/// is unknown: a usage error naming it, not a circuit or manifest path.
int parseFlowFlags(ArgCursor& args, ec::FlowConfiguration& config) {
  const std::string simsStr = args.consumeOption("--sims", "10");
  const std::string stimuliStr = args.consumeOption("--stimuli", "basis");
  const std::string timeoutStr = args.consumeOption("--timeout", "60");
  const std::string strategyStr =
      args.consumeOption("--strategy", "proportional");
  const std::string seedStr = args.consumeOption("--seed", "42");
  const bool race = args.consumeFlag("--race");
  const bool simOnly = args.consumeFlag("--sim-only");
  const bool strictPhase = args.consumeFlag("--strict-phase");
  const bool noPrescreen = args.consumeFlag("--no-prescreen");
  const bool noAttr = args.consumeFlag("--no-attr");
  for (std::size_t i = args.pos; i < args.args.size(); ++i) {
    if (args.args[i].starts_with("--")) {
      std::cerr << "unknown option: " << args.args[i] << "\n";
      usage(2);
    }
  }

  config.prescreen.enabled = !noPrescreen;
  config.simulation.attribution.enabled = !noAttr;
  config.complete.attribution.enabled = !noAttr;
  config.simulation.maxSimulations = std::stoul(simsStr);
  config.simulation.seed = std::stoull(seedStr);
  config.simulation.ignoreGlobalPhase = !strictPhase;
  config.complete.timeoutSeconds = std::stod(timeoutStr);
  config.skipComplete = simOnly;
  config.mode = race ? ec::FlowMode::Race : ec::FlowMode::Staged;

  const auto stimuli = ec::parseStimuliKind(stimuliStr);
  if (!stimuli) {
    std::cerr << "unknown stimuli kind: " << stimuliStr << "\n";
    return 2;
  }
  config.simulation.stimuli = *stimuli;
  const auto strategy = ec::parseStrategy(strategyStr);
  if (!strategy) {
    std::cerr << "unknown strategy: " << strategyStr << "\n";
    return 2;
  }
  config.complete.strategy = *strategy;
  return 0;
}

/// Flight-recorder flags shared by `check`, `batch` and `fuzz`:
/// --flight-recorder[=N] turns the recorder on (N events per thread ring),
/// --postmortem DIR implies it and selects where dumps land,
/// --postmortem-redact restricts dumps to the thread-count-stable subset
/// (see docs/flight-recorder.md).
struct FlightFlags {
  bool enabled{false};
  std::size_t eventsPerThread{2048};
  std::string dir;
  bool redact{false};
};

FlightFlags parseFlightFlags(ArgCursor& args) {
  FlightFlags flags;
  flags.enabled = args.consumeFlag("--flight-recorder");
  const std::string sized = args.consumePrefixOption("--flight-recorder=");
  if (!sized.empty()) {
    flags.enabled = true;
    flags.eventsPerThread = std::stoul(sized);
  }
  flags.dir = args.consumeOption("--postmortem", "");
  flags.redact = args.consumeFlag("--postmortem-redact");
  if (!flags.dir.empty()) {
    flags.enabled = true;
    std::filesystem::create_directories(flags.dir);
  }
  return flags;
}

/// Owns the optional flight recorder of one CLI run. When a dump directory
/// is set, the fatal-signal dump path (SIGSEGV/SIGABRT ->
/// DIR/postmortem-signal.jsonl) is armed for the scope's lifetime, so a
/// crash anywhere inside the run still leaves a postmortem behind.
struct FlightScope {
  FlightFlags flags;
  std::optional<obs::FlightRecorder> recorder;

  explicit FlightScope(const FlightFlags& f) : flags(f) {
    if (flags.enabled) {
      obs::FlightRecorder::Options options;
      options.eventsPerThread = flags.eventsPerThread;
      recorder.emplace(options);
      if (!flags.dir.empty()) {
        obs::armSignalDump(&*recorder, flags.dir);
      }
    }
  }
  ~FlightScope() {
    if (recorder && !flags.dir.empty()) {
      obs::disarmSignalDump();
    }
  }
  FlightScope(const FlightScope&) = delete;
  FlightScope& operator=(const FlightScope&) = delete;

  [[nodiscard]] obs::FlightRecorder* get() noexcept {
    return recorder ? &*recorder : nullptr;
  }

  /// End-of-run dump into DIR/`name` (no-op without a dump directory).
  /// Returns the path written, empty when no dump was taken.
  std::string dump(const std::string& name, const std::string& reason,
                   const std::string& label,
                   const obs::MetricsSnapshot* metrics) {
    if (!recorder || flags.dir.empty()) {
      return {};
    }
    obs::PostmortemOptions options;
    options.reason = reason;
    options.label = label;
    options.redact = flags.redact;
    options.metrics = metrics;
    const std::string path = flags.dir + "/" + name;
    obs::writePostmortemFile(path, *recorder, options);
    return path;
  }

  /// Merge the recorder's own health counters into a metrics snapshot so
  /// they ride along into --json output and the OpenMetrics exporter.
  void mergeCounters(obs::MetricsSnapshot& metrics) const {
    if (recorder) {
      metrics.counters["flight.events"] += recorder->eventsRecorded();
      metrics.counters["flight.events_dropped"] += recorder->eventsDropped();
    }
  }
};

/// Batch verdicts folded into one process exit code, mirroring `check`:
/// a disproof outranks bad input outranks "ran out of budget".
int batchExitCode(const svc::BatchSummary& summary) {
  if (summary.notEquivalent > 0) {
    return 1;
  }
  if (summary.invalid > 0) {
    return 4;
  }
  if (summary.inconclusive > 0) {
    return 3;
  }
  return 0;
}

int runCheck(ArgCursor& args) {
  const std::string threadsStr = args.consumeOption("--threads", "0");
  const bool localize = args.consumeFlag("--localize");
  const bool jsonOutput = args.consumeFlag("--json");
  const bool printMetrics = args.consumeFlag("--metrics");
  const bool showProgress = args.consumeFlag("--progress");
  const std::string tracePath = args.consumeOption("--trace", "");
  const std::string journalPath = args.consumeOption("--journal", "");
  const std::string samplePath = args.consumeOption("--sample", "");
  FlightFlags flightFlags = parseFlightFlags(args);
  flightFlags.enabled |= !samplePath.empty(); // the DD probes read its cells

  ec::FlowConfiguration config;
  if (const int rc = parseFlowFlags(args, config); rc != 0) {
    return rc;
  }
  config.simulation.numThreads =
      static_cast<unsigned>(std::stoul(threadsStr));

  auto a = io::parseCircuitFile(args.next("first circuit file"));
  auto b = io::parseCircuitFile(args.next("second circuit file"));

  // ancilla-adding flows produce different widths; pad the narrower one
  const std::size_t width = std::max(a.qubits(), b.qubits());
  a = tf::padQubits(a, width);
  b = tf::padQubits(b, width);

  // Attach the sinks only when requested: the null path keeps the check
  // itself free of clock reads and span/journal bookkeeping.
  obs::Tracer tracer;
  obs::Journal journal;
  FlightScope flight(flightFlags); // these two outlive the sampler's thread
  std::atomic<double> stimuliDone{0.0};
  obs::Sampler sampler;
  std::ofstream journalStream;
  obs::Context obsContext;
  if (!tracePath.empty()) {
    obsContext.tracer = &tracer;
  }
  if (!journalPath.empty()) {
    journalStream.open(journalPath);
    if (!journalStream) {
      throw std::runtime_error("cannot open journal file: " + journalPath);
    }
    journal.streamTo(&journalStream);
    obsContext.journal = &journal;
  }
  std::size_t flightNote = obs::FlightRecorder::kMaxPairNotes;
  std::string pairFingerprint;
  if (flight.get() != nullptr) {
    obsContext.flight = flight.get();
    pairFingerprint = svc::fingerprint(a).hex();
    flightNote = flight.get()->notePair("check", pairFingerprint);
  }
  if (!samplePath.empty()) {
    sampler.addFlightProbes(*flight.get());
    sampler.addProbe("sim.stimuli_completed",
                     [&stimuliDone] { return stimuliDone.load(); });
    if (!tracePath.empty()) {
      sampler.attachTracer(&tracer); // counter tracks under the spans
    }
    sampler.start();
  }
  if (showProgress || !samplePath.empty()) {
    config.progress = [showProgress, &stimuliDone](const ec::FlowProgress& p) {
      stimuliDone = static_cast<double>(p.simulationsDone);
      if (showProgress) {
        std::cerr << "\r[" << p.stage << "] tier=" << p.tier << " stimuli "
                  << p.simulationsDone << "/" << p.simulationsTotal << "   "
                  << std::flush;
        if (p.stage == "done") {
          std::cerr << "\n";
        }
      }
    };
  }

  const ec::EquivalenceCheckingFlow flow(config);
  auto result = flow.run(a, b, obsContext);

  // flight-recorder health rides along into --json metrics (and from there
  // into `metrics-export`), plus the end-of-run postmortem when requested
  flight.mergeCounters(result.metrics);
  std::string dumpPath;
  if (flight.get() != nullptr) {
    const std::string reason = result.completeTimedOut ? "timeout"
                               : result.simulationCancelled ||
                                       result.completeCancelled
                                   ? "cancelled"
                                   : "complete";
    dumpPath = flight.dump("postmortem-check.jsonl", reason, pairFingerprint,
                           &result.metrics);
    flight.get()->clearPair(flightNote);
  }

  sampler.stop(); // before the trace export so counter events are complete
  if (!samplePath.empty()) {
    sampler.writeCsv(samplePath);
  }
  if (!tracePath.empty()) {
    tracer.writeChromeTrace(tracePath);
  }
  journal.streamTo(nullptr);

  if (jsonOutput) {
    std::cout << ec::toJson(result) << "\n";
  } else if (result.equivalence == ec::Equivalence::InvalidInput) {
    std::cout << "result:      " << toString(result.equivalence) << "\n";
    for (const auto& d : result.diagnostics) {
      std::cout << "  " << analysis::toString(d) << "\n";
    }
  } else {
    std::cout << "result:      " << toString(result.equivalence) << "\n"
              << "tier:        " << toString(result.tier) << "\n"
              << "simulations: " << result.simulations << " ("
              << result.simulationSeconds << "s, " << result.numThreads
              << (result.numThreads == 1 ? " thread" : " threads")
              << (result.simulationCancelled ? ", cancelled" : "") << ")\n";
    if (!config.skipComplete) {
      std::cout << "complete:    " << result.completeSeconds << "s"
                << (result.completeTimedOut ? " (timed out)" : "")
                << (result.completeCancelled ? " (cancelled)" : "") << "\n";
    }
    if (result.mode == ec::FlowMode::Race) {
      std::cout << "race winner: " << toString(result.winner) << "\n";
    }
    if (!tracePath.empty()) {
      std::cout << "trace:       " << tracePath << " (" << tracer.events().size()
                << " spans, " << tracer.counterEvents().size()
                << " counter samples; open in about:tracing or"
                << " ui.perfetto.dev)\n";
    }
    if (!journalPath.empty()) {
      std::cout << "journal:     " << journalPath << " ("
                << journal.lineCount() << " lines)\n";
    }
    if (!samplePath.empty()) {
      std::cout << "samples:     " << samplePath << " ("
                << sampler.sampleCount() << " samples over "
                << sampler.series().size() << " probes)\n";
    }
    if (!dumpPath.empty()) {
      std::cout << "postmortem:  " << dumpPath
                << " (qsimec report renders it)\n";
    }
    if (printMetrics) {
      std::cout << "metrics:     " << obs::toJson(result.metrics) << "\n";
    }
    if (result.counterexample) {
      std::cout << "counterexample: "
                << ec::describeStimulus(result.counterexample->stimuli,
                                        result.counterexample->input, width)
                << "  (output fidelity " << result.counterexample->fidelity
                << ")\n";
      if (localize &&
          result.counterexample->stimuli ==
              ec::StimuliKind::ComputationalBasis) {
        const auto loc = ec::localizeError(a.withMaterializedLayouts(),
                                           b.withMaterializedLayouts(),
                                           result.counterexample->input);
        if (loc) {
          std::cout << "localized:   first divergence at gate #"
                    << loc->gateIndex << " of the second circuit ("
                    << loc->suspect << ")\n";
        }
      }
    }
  }
  // exit code: 0 equivalent-ish, 1 not equivalent, 3 inconclusive,
  // 4 invalid input
  switch (result.equivalence) {
  case ec::Equivalence::Equivalent:
  case ec::Equivalence::EquivalentUpToGlobalPhase:
  case ec::Equivalence::ProbablyEquivalent:
    return 0;
  case ec::Equivalence::NotEquivalent:
    return 1;
  case ec::Equivalence::NoInformation:
    return 3;
  case ec::Equivalence::InvalidInput:
    return 4;
  }
  return 3;
}

/// `qsimec batch`: check a JSONL manifest of circuit pairs against one
/// worker pool, with an optional persistent verdict cache.
int runBatch(ArgCursor& args) {
  const std::string threadsStr = args.consumeOption("--threads", "0");
  const std::string cachePath = args.consumeOption("--cache", "");
  const bool jsonOutput = args.consumeFlag("--json");
  const bool showProgress = args.consumeFlag("--progress");
  const std::string tracePath = args.consumeOption("--trace", "");
  const std::string journalPath = args.consumeOption("--journal", "");
  const double stallTimeout =
      std::stod(args.consumeOption("--stall-timeout", "0"));
  const double pairDeadline =
      std::stod(args.consumeOption("--pair-deadline", "0"));
  FlightFlags flightFlags = parseFlightFlags(args);
  // stall containment needs a recorder for heartbeats even without the flag
  if (stallTimeout > 0.0 || pairDeadline > 0.0) {
    flightFlags.enabled = true;
  }

  ec::FlowConfiguration base;
  if (const int rc = parseFlowFlags(args, base); rc != 0) {
    return rc;
  }
  // pairs are the unit of parallelism here; keep each pair's stimulus
  // portfolio serial so --threads N never oversubscribes to N*N workers
  base.simulation.numThreads = 1;

  const std::string manifestPath = args.next("manifest file");
  const svc::BatchManifest manifest =
      svc::loadManifestFile(manifestPath, base);

  obs::Tracer tracer;
  obs::Journal journal;
  std::ofstream journalStream;
  obs::Context obsContext;
  if (!tracePath.empty()) {
    obsContext.tracer = &tracer;
  }
  if (!journalPath.empty()) {
    journalStream.open(journalPath);
    if (!journalStream) {
      throw std::runtime_error("cannot open journal file: " + journalPath);
    }
    journal.streamTo(&journalStream);
    obsContext.journal = &journal;
  }

  svc::VerdictCache cache;
  std::ofstream cacheStream;
  if (!cachePath.empty()) {
    cache.loadFile(cachePath); // missing file = cold cache
    cacheStream.open(cachePath, std::ios::app);
    if (!cacheStream) {
      throw std::runtime_error("cannot open cache file: " + cachePath);
    }
    cache.persistTo(&cacheStream);
  }

  FlightScope flight(flightFlags);
  if (flight.get() != nullptr) {
    obsContext.flight = flight.get();
  }

  svc::BatchOptions options;
  options.threads = static_cast<unsigned>(std::stoul(threadsStr));
  options.cache = cachePath.empty() ? nullptr : &cache;
  options.stallQuietSeconds = stallTimeout;
  options.pairDeadlineSeconds = pairDeadline;
  options.postmortemDir = flightFlags.dir;
  if (showProgress) {
    options.onPairDone = [](std::size_t done, std::size_t total) {
      std::cerr << "\rpairs " << done << "/" << total << "   " << std::flush;
      if (done == total) {
        std::cerr << "\n";
      }
    };
  }

  svc::BatchScheduler scheduler(std::move(options));
  const svc::BatchResult result = scheduler.run(manifest, obsContext);
  cache.persistTo(nullptr);

  std::string dumpPath;
  if (flight.get() != nullptr) {
    dumpPath = flight.dump("postmortem-batch.jsonl",
                           result.summary.stalled > 0 ? "stall" : "complete",
                           manifestPath, nullptr);
  }

  if (!tracePath.empty()) {
    tracer.writeChromeTrace(tracePath);
  }
  journal.streamTo(nullptr);

  if (jsonOutput) {
    for (const svc::PairOutcome& outcome : result.outcomes) {
      std::cout << svc::toJsonLine(outcome) << "\n";
    }
    std::cout << svc::toJsonLine(result.summary) << "\n";
  } else {
    for (const svc::PairOutcome& outcome : result.outcomes) {
      std::cout << "[" << outcome.index << "] " << outcome.gPath << " vs "
                << outcome.gPrimePath << ": "
                << ec::toString(outcome.equivalence);
      if (outcome.cacheHit) {
        std::cout << " (cached)";
      } else if (outcome.stalled) {
        std::cout << " (stalled";
        if (!outcome.dumpRef.empty()) {
          std::cout << ", dump " << outcome.dumpRef;
        }
        std::cout << ")";
      } else if (outcome.cancelled) {
        std::cout << " (cancelled)";
      } else if (!outcome.error.empty()) {
        std::cout << " (" << outcome.error << ")";
      } else {
        std::cout << " (" << outcome.simulations << " sims, "
                  << outcome.seconds << "s"
                  << (outcome.completeTimedOut ? ", timed out" : "") << ")";
      }
      std::cout << "\n";
    }
    const svc::BatchSummary& s = result.summary;
    std::cout << "pairs: " << s.pairs << "  equivalent: " << s.equivalent
              << "  not-equivalent: " << s.notEquivalent
              << "  inconclusive: " << s.inconclusive
              << "  invalid: " << s.invalid;
    if (s.stalled > 0) {
      std::cout << "  stalled: " << s.stalled;
    }
    std::cout << "\n"
              << "cache: " << s.cacheHits << " hit(s), " << s.cacheStores
              << " store(s)  threads: " << s.threads << "  " << s.seconds
              << "s\n";
    if (!dumpPath.empty()) {
      std::cout << "postmortem: " << dumpPath << "\n";
    }
  }
  return batchExitCode(result.summary);
}

/// SIGTERM/SIGINT land here while `qsimec serve` runs; the daemon's
/// acceptor polls the flag and converts it into a graceful drain. A store
/// to a std::atomic<bool> is the whole handler — the only thing that is
/// async-signal-safe to do.
std::atomic<bool> gStopRequested{false};

extern "C" void handleStopSignal(int) {
  gStopRequested.store(true, std::memory_order_relaxed);
}

int runServe(ArgCursor& args) {
  daemon::DaemonOptions options;
  options.socketPath = args.consumeOption("--socket", "");
  options.spoolDir = args.consumeOption("--spool", "");
  options.threads = static_cast<unsigned>(
      std::stoul(args.consumeOption("--threads", "0")));
  options.cachePath = args.consumeOption("--cache", "");
  options.cacheCapacity =
      std::stoul(args.consumeOption("--cache-capacity", "4096"));
  options.maxQueueDepth = std::stoul(args.consumeOption("--max-queue", "64"));
  options.agingSeconds = std::stod(args.consumeOption("--aging", "10"));
  options.stallQuietSeconds =
      std::stod(args.consumeOption("--stall-timeout", "30"));
  options.pairDeadlineSeconds =
      std::stod(args.consumeOption("--pair-deadline", "0"));
  options.postmortemDir = args.consumeOption("--postmortem", "");
  options.journalPath = args.consumeOption("--journal", "");
  if (const int rc = parseFlowFlags(args, options.base); rc != 0) {
    return rc;
  }
  // pairs are the daemon's unit of parallelism, exactly as in batch
  options.base.simulation.numThreads = 1;
  if (options.socketPath.empty()) {
    std::cerr << "serve requires --socket PATH\n";
    return 2;
  }

  options.stopFlag = &gStopRequested;
  std::signal(SIGTERM, handleStopSignal);
  std::signal(SIGINT, handleStopSignal);

  daemon::Daemon daemon(std::move(options));
  daemon.start();
  std::cerr << "qsimec daemon listening\n";
  daemon.run(); // returns after a graceful drain
  std::cerr << "qsimec daemon drained, " << daemon.completedRequests()
            << " request(s) served\n";
  return 0;
}

int runSubmit(ArgCursor& args) {
  const std::string socketPath = args.consumeOption("--socket", "");
  daemon::SubmitOptions options;
  options.client = args.consumeOption("--client", "cli");
  options.priority =
      static_cast<int>(std::stol(args.consumeOption("--priority", "2")));
  options.redact = args.consumeFlag("--redact");
  options.wait = !args.consumeFlag("--no-wait");
  options.timeoutSeconds = std::stod(args.consumeOption("--timeout", "0"));
  const std::string manifestPath = args.next("manifest file");
  if (socketPath.empty()) {
    std::cerr << "submit requires --socket PATH\n";
    return 2;
  }

  std::ifstream in(manifestPath);
  if (!in) {
    std::cerr << "cannot open manifest file: " << manifestPath << "\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  daemon::SubmitResult result;
  try {
    result = daemon::submitManifestText(socketPath, text.str(), options);
  } catch (const std::exception& e) {
    std::cerr << "submit failed: " << e.what() << "\n";
    return 5;
  }
  if (!result.accepted) {
    std::cerr << "rejected: " << result.error
              << (result.message.empty() ? "" : " (" + result.message + ")")
              << "\n";
    return 5;
  }
  for (const std::string& line : result.lines) {
    std::cout << line << "\n";
  }
  return daemon::submitExitCode(result);
}

int runStatus(ArgCursor& args) {
  const std::string socketPath = args.consumeOption("--socket", "");
  const bool rawJson = args.consumeFlag("--json");
  const bool metrics = args.consumeFlag("--metrics");
  if (socketPath.empty()) {
    std::cerr << "status requires --socket PATH\n";
    return 2;
  }
  try {
    if (metrics) {
      std::cout << daemon::fetchMetrics(socketPath);
      return 0;
    }
    const std::string status = daemon::fetchStatus(socketPath);
    if (rawJson) {
      std::cout << status;
      if (status.empty() || status.back() != '\n') {
        std::cout << "\n";
      }
      return 0;
    }
    const util::JsonValue doc = util::parseJson(status);
    const util::JsonValue& queue = doc.at("queue");
    const util::JsonValue& requests = doc.at("requests");
    const util::JsonValue& pairs = doc.at("pairs");
    const util::JsonValue& cache = doc.at("cache");
    std::cout << "state: " << doc.at("state").asString() << "  uptime: "
              << doc.at("uptime_seconds").asNumber() << "s\n"
              << "queue: " << queue.at("depth").asUint() << " waiting"
              << (queue.at("active").asBool()
                      ? " (+1 active, " + queue.at("active_client").asString() +
                            ")"
                      : "")
              << (queue.at("paused").asBool() ? " [paused]" : "") << "\n"
              << "requests: " << requests.at("accepted").asUint()
              << " accepted, " << requests.at("completed").asUint()
              << " completed, " << requests.at("failed").asUint()
              << " failed, " << doc.at("admission").at("rejected").asUint()
              << " rejected\n"
              << "pairs: " << pairs.at("total").asUint() << " total, "
              << pairs.at("cache_hits").asUint() << " cache hit(s), "
              << pairs.at("dispatched").asUint() << " dispatched, "
              << pairs.at("stalled").asUint() << " stalled\n"
              << "cache: " << cache.at("size").asUint() << "/"
              << cache.at("capacity").asUint() << " entries, "
              << cache.at("hits").asUint() << " hit(s), "
              << cache.at("evictions").asUint() << " eviction(s) ("
              << cache.at("evicted_seconds").asNumber()
              << "s of proof evicted)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "status failed: " << e.what() << "\n";
    return 5;
  }
}

int runShutdown(ArgCursor& args) {
  const std::string socketPath = args.consumeOption("--socket", "");
  if (socketPath.empty()) {
    std::cerr << "shutdown requires --socket PATH\n";
    return 2;
  }
  try {
    if (!daemon::sendShutdown(socketPath)) {
      std::cerr << "daemon did not acknowledge the shutdown\n";
      return 5;
    }
  } catch (const std::exception& e) {
    std::cerr << "shutdown failed: " << e.what() << "\n";
    return 5;
  }
  return 0;
}

/// `qsimec bench-diff`: the CI regression gate over two bench reports.
int runBenchDiff(ArgCursor& args) {
  obs::BenchDiffOptions options;
  options.timeTolerance =
      std::stod(args.consumeOption("--tolerance", "0.25"));
  options.counterTolerance =
      std::stod(args.consumeOption("--counter-tolerance", "0"));
  options.minSeconds = std::stod(args.consumeOption("--min-seconds", "0.01"));

  const std::string baselinePath = args.next("baseline report");
  const std::string currentPath = args.next("current report");
  const obs::BenchReportFile baseline = obs::loadBenchReport(baselinePath);
  const obs::BenchReportFile current = obs::loadBenchReport(currentPath);

  const obs::BenchDiffResult result =
      obs::diffBenchReports(baseline, current, options);
  std::cout << obs::formatBenchDiff(result);

  std::size_t regressions = 0;
  for (const obs::DiffFinding& finding : result.findings) {
    regressions += finding.severity == obs::DiffSeverity::Regression ? 1 : 0;
  }
  if (regressions > 0) {
    std::cout << "\nbench-diff: REGRESSION (" << regressions
              << " finding(s) across " << result.rows.size()
              << " benchmark(s))\n";
    return 1;
  }
  std::cout << "\nbench-diff: OK (" << result.rows.size()
            << " benchmark(s) within tolerance)\n";
  return 0;
}

std::string slurpFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open " + path);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) {
    lines.push_back(line);
  }
  return lines;
}

void writeTextFile(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open " + path);
  }
  os << text;
}

/// `qsimec report`: render run journals (optionally with a trace) or one
/// postmortem dump as Markdown or HTML.
int runReport(ArgCursor& args) {
  const std::string tracePath = args.consumeOption("--trace", "");
  const std::string outPath = args.consumeOption("--out", "");
  obs::RunReportOptions options;
  options.topRows = std::stoul(args.consumeOption("--top", "10"));
  options.format = outPath.ends_with(".html")
                       ? obs::RunReportOptions::Format::Html
                       : obs::RunReportOptions::Format::Markdown;
  const std::string firstPath = args.next("run journal or postmortem dump");
  std::vector<std::string> lines = readLines(firstPath);

  std::string text;
  std::string summary;
  if (obs::isRunJournal(lines)) {
    while (!args.empty()) {
      std::vector<std::string> more = readLines(args.next(""));
      lines.insert(lines.end(), std::make_move_iterator(more.begin()),
                   std::make_move_iterator(more.end()));
    }
    obs::RunReport report = obs::parseRunJournal(lines);
    if (!tracePath.empty()) {
      obs::attachTraceSummary(report, slurpFile(tracePath));
    }
    text = obs::renderRunReport(report, options);
    summary = std::to_string(report.events) + " journal event(s)";
    if (report.malformedLines > 0) {
      summary += ", " + std::to_string(report.malformedLines) +
                 " malformed line(s)";
    }
  } else {
    if (!args.empty() || !tracePath.empty()) {
      std::cerr << "report: a postmortem dump is read alone (no --trace, "
                   "no further files)\n";
      return 2;
    }
    const obs::PostmortemReport dump = obs::parsePostmortem(lines);
    if (!dump.valid) {
      std::cerr << firstPath << ": " << dump.error << "\n";
      return 2;
    }
    text = obs::renderRunReport(dump, options);
    summary = std::to_string(dump.events.size()) + " dump event(s)";
  }

  if (outPath.empty()) {
    std::cout << text;
  } else {
    writeTextFile(outPath, text);
    std::cout << "wrote " << outPath << " (" << summary << ")\n";
  }
  return 0;
}

/// `qsimec metrics-export`: metrics JSON -> OpenMetrics exposition text
/// (or, with --lint, validate an existing exposition file).
int runMetricsExport(ArgCursor& args) {
  const std::string lintPath = args.consumeOption("--lint", "");
  const std::string outPath = args.consumeOption("--out", "");
  const std::string prefix = args.consumeOption("--prefix", "qsimec");

  if (!lintPath.empty()) {
    const std::vector<obs::OpenMetricsIssue> issues =
        obs::validateOpenMetrics(slurpFile(lintPath));
    for (const obs::OpenMetricsIssue& issue : issues) {
      std::cerr << lintPath << ":" << issue.line << ": " << issue.message
                << "\n";
    }
    if (!issues.empty()) {
      std::cerr << lintPath << ": " << issues.size() << " issue(s)\n";
      return 4;
    }
    std::cout << lintPath << ": OK\n";
    return 0;
  }

  const std::string sourcePath = args.next("metrics JSON file");
  const std::string sourceText = slurpFile(sourcePath);
  obs::MetricsSnapshot snapshot;
  const util::JsonValue root = util::parseJson(sourceText);
  const util::JsonValue* schema = root.find("schema");
  if (schema != nullptr && schema->asString() == "qsimec-bench-v1") {
    // a bench report: merge every record's metrics into one exposition
    const obs::BenchReportFile report = obs::parseBenchReport(sourceText);
    for (const obs::BenchReportRecord& record : report.records) {
      snapshot.merge(record.metrics);
    }
  } else if (const util::JsonValue* metrics = root.find("metrics")) {
    snapshot = obs::parseMetricsSnapshot(*metrics); // a check --json result
  } else {
    snapshot = obs::parseMetricsSnapshot(root); // a raw metrics object
  }

  obs::OpenMetricsOptions options;
  options.prefix = prefix;
  const std::string text = obs::renderOpenMetrics(snapshot, options);
  // self-check: the renderer and the validator must agree, always
  const std::vector<obs::OpenMetricsIssue> issues =
      obs::validateOpenMetrics(text);
  if (!issues.empty()) {
    for (const obs::OpenMetricsIssue& issue : issues) {
      std::cerr << "internal: produced invalid OpenMetrics at line "
                << issue.line << ": " << issue.message << "\n";
    }
    return 2;
  }
  if (outPath.empty()) {
    std::cout << text;
  } else {
    writeTextFile(outPath, text);
    std::cout << "wrote " << outPath << " (" << snapshot.counters.size()
              << " counter(s), " << snapshot.gauges.size() << " gauge(s), "
              << snapshot.histograms.size() << " histogram(s))\n";
  }
  return 0;
}

/// `qsimec lint`: parse without validation, run the full analyzer, report.
int runLint(ArgCursor& args) {
  const bool jsonOutput = args.consumeFlag("--json");
  const bool errorsOnly = args.consumeFlag("--errors-only");

  std::vector<std::string> files;
  files.push_back(args.next("circuit file"));
  if (!args.empty()) {
    files.push_back(args.next("second circuit file"));
  }

  // admit malformed circuits so every finding is reported, not just the
  // first one a throwing parser would hit
  std::vector<ir::QuantumComputation> circuits;
  circuits.reserve(files.size());
  for (const std::string& f : files) {
    circuits.push_back(io::parseCircuitFile(f, {.validate = false}));
  }

  const analysis::CircuitAnalyzer analyzer({.lint = !errorsOnly});
  const analysis::AnalysisReport report =
      circuits.size() == 2 ? analyzer.analyzePair(circuits[0], circuits[1])
                           : analyzer.analyze(circuits[0]);

  const std::size_t errors = report.count(analysis::Severity::Error);
  const std::size_t warnings = report.count(analysis::Severity::Warning);
  const std::size_t notes = report.count(analysis::Severity::Note);

  if (jsonOutput) {
    util::JsonWriter json;
    json.beginObject().beginArray("files");
    for (const std::string& f : files) {
      json.value(f);
    }
    json.endArray()
        .rawField("diagnostics", analysis::toJson(report.diagnostics))
        .field("errors", errors)
        .field("warnings", warnings)
        .field("notes", notes)
        .endObject();
    std::cout << json.str() << "\n";
  } else {
    for (const auto& d : report.diagnostics) {
      // pair-level findings (QP/QS rules) belong to both files, not to
      // whichever circuit index happens to be stored
      const std::string file =
          d.pair && files.size() == 2 ? files[0] + ", " + files[1]
                                      : files[d.circuit < files.size()
                                                  ? d.circuit
                                                  : 0];
      std::cout << file << ": " << analysis::toString(d) << "\n";
    }
    std::cout << errors << " error(s), " << warnings << " warning(s), "
              << notes << " note(s)\n";
  }
  return errors > 0 ? 4 : 0;
}

/// `qsimec profile`: the static semantic profile (and, for a pair, the
/// prescreen + tier routing) with no simulation and no decision diagrams.
int runProfile(ArgCursor& args) {
  const bool jsonOutput = args.consumeFlag("--json");

  std::vector<std::string> files;
  files.push_back(args.next("circuit file"));
  if (!args.empty()) {
    files.push_back(args.next("second circuit file"));
  }

  std::vector<ir::QuantumComputation> circuits;
  circuits.reserve(files.size());
  for (const std::string& f : files) {
    circuits.push_back(io::parseCircuitFile(f, {.validate = false}));
  }
  if (circuits.size() == 2) {
    // mirror `check`: pad the narrower circuit so ancilla-adding flows
    // profile as a comparable pair
    const std::size_t width =
        std::max(circuits[0].qubits(), circuits[1].qubits());
    circuits[0] = tf::padQubits(circuits[0], width);
    circuits[1] = tf::padQubits(circuits[1], width);
  }

  // error-gate before profiling: a malformed circuit has no meaningful
  // gate-set class, and the prescreen assumes well-formed operations
  const analysis::CircuitAnalyzer analyzer({.lint = false});
  const analysis::AnalysisReport report =
      circuits.size() == 2 ? analyzer.analyzePair(circuits[0], circuits[1])
                           : analyzer.analyze(circuits[0]);
  if (report.count(analysis::Severity::Error) > 0) {
    std::cerr << "invalid input:\n";
    for (const auto& d : report.diagnostics) {
      if (d.severity == analysis::Severity::Error) {
        std::cerr << "  " << analysis::toString(d) << "\n";
      }
    }
    return 4;
  }

  const auto describe = [](const analysis::CircuitProfile& p,
                           const std::string& file) {
    std::cout << file << ":\n"
              << "  gate set:  " << toString(p.gateSet) << "\n"
              << "  qubits:    " << p.qubits << "\n"
              << "  gates:     " << p.gates << " (depth " << p.depth << ", "
              << p.twoQubitGates << " two-qubit)\n";
    if (p.tGates > 0) {
      std::cout << "  t gates:   " << p.tGates << "\n";
    }
    if (p.cliffordBreakerCount > 0) {
      std::cout << "  non-clifford gates: " << p.cliffordBreakerCount
                << " (first at";
      for (const std::size_t index : p.cliffordBreakers) {
        std::cout << " #" << index;
      }
      if (p.cliffordBreakerCount > p.cliffordBreakers.size()) {
        std::cout << " ...";
      }
      std::cout << ")\n";
    }
  };

  if (circuits.size() == 1) {
    const auto profile = analysis::profileCircuit(circuits[0]);
    if (jsonOutput) {
      std::cout << analysis::toJson(profile) << "\n";
    } else {
      describe(profile, files[0]);
    }
    return 0;
  }

  const auto profile = analysis::profilePair(circuits[0], circuits[1]);
  const auto pre = analysis::prescreenPair(circuits[0], circuits[1]);
  const auto tier = analysis::routeTier(profile, pre);
  if (jsonOutput) {
    util::JsonWriter json;
    json.beginObject()
        .rawField("profile", analysis::toJson(profile))
        .field("tier", std::string(toString(tier)))
        .field("static_verdict", std::string(toString(pre.verdict)))
        .field("stripped_prefix", pre.strippedPrefix)
        .field("stripped_suffix", pre.strippedSuffix)
        .field("merged_rotations", pre.mergedRotations)
        .field("residual_gates",
               pre.residualG.size() + pre.residualGPrime.size())
        .rawField("diagnostics", analysis::toJson(pre.diagnostics))
        .endObject();
    std::cout << json.str() << "\n";
  } else {
    describe(profile.g, files[0]);
    describe(profile.gPrime, files[1]);
    std::cout << "pair:\n"
              << "  gate set:  " << toString(profile.combined()) << "\n"
              << "  tier:      " << toString(tier) << "\n"
              << "  prescreen: stripped " << pre.strippedPrefix
              << " prefix + " << pre.strippedSuffix << " suffix gate(s), "
              << "merged " << pre.mergedRotations << " rotation(s); "
              << pre.residualG.size() + pre.residualGPrime.size()
              << " residual gate(s)\n"
              << "  verdict:   " << toString(pre.verdict) << "\n";
  }
  return 0;
}

int runSim(ArgCursor& args) {
  const std::uint64_t input =
      std::stoull(args.consumeOption("--input", "0"));
  const std::size_t top = std::stoul(args.consumeOption("--top", "16"));
  const auto qc = io::parseCircuitFile(args.next("circuit file"));

  dd::Package pkg(qc.qubits());
  const auto out = sim::simulate(qc, pkg.makeBasisState(input), pkg);
  std::cout << "simulated " << qc.name() << ": " << qc.qubits() << " qubits, "
            << qc.size() << " gates; final DD has "
            << dd::Package::size(out) << " nodes\n";

  if (qc.qubits() > 28) {
    std::cout << "(state too wide to enumerate amplitudes)\n";
    return 0;
  }
  std::vector<std::pair<double, std::uint64_t>> amps;
  for (std::uint64_t i = 0; i < (1ULL << qc.qubits()); ++i) {
    const double p = pkg.getAmplitude(out, i).mag2();
    if (p > 1e-12) {
      amps.emplace_back(p, i);
    }
  }
  std::sort(amps.rbegin(), amps.rend());
  for (std::size_t k = 0; k < std::min(top, amps.size()); ++k) {
    std::cout << "|" << dd::basisLabel(amps[k].second, qc.qubits())
              << ">  p=" << amps[k].first << "\n";
  }
  return 0;
}

int runInfo(ArgCursor& args) {
  const auto qc = io::parseCircuitFile(args.next("circuit file"));
  std::cout << "name:    " << qc.name() << "\n"
            << "qubits:  " << qc.qubits() << "\n"
            << "gates:   " << qc.size() << "\n"
            << "depth:   " << qc.depth() << "\n"
            << "2q gates:" << " " << qc.twoQubitGateCount() << "\n";
  for (int t = 0; t <= static_cast<int>(ir::OpType::GPhase); ++t) {
    const auto type = static_cast<ir::OpType>(t);
    const std::size_t count = qc.countType(type);
    if (count > 0) {
      std::cout << "  " << ir::toString(type) << ": " << count << "\n";
    }
  }
  return 0;
}

void writeByExtension(const ir::QuantumComputation& qc,
                      const std::string& path);

int runConvert(ArgCursor& args) {
  auto qc = io::parseCircuitFile(args.next("input file"));
  const std::string out = args.next("output file");
  if (out.ends_with(".qasm")) {
    // decompose whatever OpenQASM 2.0 cannot express
    const bool needsDecomposition = std::any_of(
        qc.begin(), qc.end(), [](const ir::StandardOperation& op) {
          return op.controls().size() > 2 ||
                 std::any_of(op.controls().begin(), op.controls().end(),
                             [](const ir::Control& c) { return !c.positive; });
        });
    if (needsDecomposition) {
      const std::size_t before = qc.size();
      qc = tf::decompose(qc);
      std::cout << "note: decomposed " << before << " gates into "
                << qc.size() << " elementary gates for OpenQASM export\n";
    }
  }
  writeByExtension(qc, out);
  std::cout << "wrote " << out << "\n";
  return 0;
}

void writeByExtension(const ir::QuantumComputation& qc,
                      const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open " + path);
  }
  if (path.ends_with(".real")) {
    io::writeReal(qc, os);
  } else if (path.ends_with(".qasm")) {
    io::writeQasm(qc, os);
  } else if (path.ends_with(".tfc")) {
    io::writeTfc(qc, os);
  } else {
    throw std::runtime_error("unrecognized output format: " + path);
  }
}

int runGen(ArgCursor& args) {
  const std::uint64_t seed = std::stoull(args.consumeOption("--seed", "1"));
  const std::string family = args.next("circuit family");
  const auto num = [&args](const char* what) {
    return std::stoul(args.next(what));
  };

  ir::QuantumComputation qc;
  if (family == "qft") {
    qc = gen::qft(num("qubit count"));
  } else if (family == "qft-alt") {
    qc = gen::qftAlternative(num("qubit count"));
  } else if (family == "grover") {
    const std::size_t k = num("search qubits");
    qc = gen::grover(k, seed % (1ULL << k));
  } else if (family == "supremacy") {
    const std::size_t r = num("rows");
    const std::size_t c = num("cols");
    qc = gen::supremacy(r, c, num("cycles"), seed);
  } else if (family == "chemistry") {
    const std::size_t r = num("rows");
    qc = gen::hubbardTrotter(r, num("cols"));
  } else if (family == "hwb") {
    qc = gen::hwbCircuit(num("bits"));
  } else if (family == "urf") {
    qc = gen::urfCircuit(num("bits"), seed);
  } else if (family == "adder") {
    qc = gen::adderCircuit(num("bits"));
  } else if (family == "inc") {
    qc = gen::incrementCircuit(num("bits"));
  } else if (family == "random") {
    const std::size_t n = num("qubit count");
    qc = gen::randomCircuit(n, num("gate count"), seed);
  } else if (family == "bv") {
    const std::size_t n = num("secret bits");
    qc = gen::bernsteinVazirani(n, seed % (1ULL << std::min<std::size_t>(n, 63)));
  } else if (family == "dj") {
    qc = gen::deutschJozsa(num("input bits"), true, seed);
  } else if (family == "qpe") {
    const std::size_t m = num("precision bits");
    qc = gen::qpe(m, static_cast<double>(seed % (1ULL << m)) /
                         static_cast<double>(1ULL << m));
  } else if (family == "ghz") {
    qc = gen::ghzState(num("qubit count"));
  } else if (family == "w") {
    qc = gen::wState(num("qubit count"));
  } else if (family == "modmul") {
    const std::uint64_t a = num("multiplier a");
    const std::uint64_t n = num("modulus N");
    qc = gen::modularMultiplier(a, n, num("bits"));
  } else if (family == "modadd") {
    const std::uint64_t c = num("offset c");
    const std::uint64_t n = num("modulus N");
    qc = gen::modularOffsetAdder(c, n, num("bits"));
  } else if (family == "cuccaro") {
    qc = gen::cuccaroAdder(num("bits"));
  } else if (family == "cmp") {
    qc = gen::comparatorCircuit(num("bits"));
  } else if (family == "hea") {
    const std::size_t n = num("qubit count");
    qc = gen::hardwareEfficientAnsatz(n, {.layers = num("layers"),
                                          .seed = seed});
  } else if (family == "excitation") {
    const std::size_t n = num("qubit count");
    qc = gen::excitationAnsatz(n, {.layers = num("layers"), .seed = seed});
  } else if (family == "clifford") {
    const std::size_t n = num("qubit count");
    qc = gen::randomClifford(n, num("gate count"), seed);
  } else if (family == "corpus") {
    const gen::CorpusManifest manifest =
        gen::emitCorpus({.dir = args.next("output directory"), .seed = seed});
    for (const gen::CorpusEntry& entry : manifest.entries) {
      std::cout << (entry.expectEquivalent ? "  eq " : "  ne ")
                << entry.family << ": " << entry.gPath << " vs "
                << entry.gPrimePath << " (" << entry.derivation << ")\n";
    }
    std::cout << "wrote " << manifest.entries.size() << " pair(s); manifest "
              << manifest.manifestPath << ", metadata "
              << manifest.sidecarPath << "\n";
    return 0;
  } else {
    std::cerr << "unknown family: " << family << "\n";
    return 2;
  }

  const std::string out = args.next("output file");
  // make the circuit expressible in the chosen format
  if (out.ends_with(".qasm")) {
    bool needsDecomposition = false;
    for (const auto& op : qc) {
      needsDecomposition =
          needsDecomposition || op.controls().size() > 2 ||
          std::any_of(op.controls().begin(), op.controls().end(),
                      [](const ir::Control& c) { return !c.positive; });
    }
    if (needsDecomposition) {
      qc = tf::decompose(qc);
    }
  }
  writeByExtension(qc, out);
  std::cout << "wrote " << qc.name() << " (" << qc.qubits() << " qubits, "
            << qc.size() << " gates) to " << out << "\n";
  return 0;
}

/// `qsimec fuzz`: differential fuzzing of the whole flow against the dense
/// oracle. Exit 0 when every verdict agrees, 1 on any disagreement (with
/// reproducer JSONL lines on stdout / --out), 2 on usage errors.
int runFuzzCmd(ArgCursor& args) {
  // replay mode: re-check recorded reproducers instead of generating
  const std::string replayPath = args.consumeOption("--replay", "");
  if (!replayPath.empty()) {
    std::ifstream in(replayPath);
    if (!in) {
      std::cerr << "cannot open " << replayPath << "\n";
      return 2;
    }
    std::size_t line = 0;
    std::size_t failures = 0;
    std::string text;
    while (std::getline(in, text)) {
      ++line;
      if (text.empty()) {
        continue;
      }
      const fuzz::Reproducer r = fuzz::parseReproducer(text);
      const fuzz::ReplayResult result = fuzz::replayReproducer(r);
      std::cout << replayPath << ":" << line << ": ["
                << fuzz::toString(r.config) << "] flow="
                << result.flowVerdict << " oracle=" << result.oracleVerdict
                << (result.disagrees ? "  DISAGREES" : "  ok") << "\n";
      if (result.disagrees) {
        ++failures;
      }
    }
    std::cout << (failures == 0 ? "replay clean" : "replay found failures")
              << " (" << line << " reproducer(s), " << failures
              << " disagreement(s))\n";
    return failures == 0 ? 0 : 1;
  }

  fuzz::FuzzOptions options;
  options.seed = std::stoull(args.consumeOption("--seed", "42"));
  options.pairs = std::stoul(args.consumeOption("--pairs", "100"));
  options.generator.minQubits =
      std::stoul(args.consumeOption("--min-qubits", "3"));
  options.generator.maxQubits =
      std::stoul(args.consumeOption("--max-qubits", "6"));
  options.generator.maxGates =
      std::stoul(args.consumeOption("--max-gates", "28"));
  options.completeTimeoutSeconds =
      std::stod(args.consumeOption("--timeout", "60"));
  if (args.consumeFlag("--no-shrink")) {
    options.shrink = false;
  }
  (void)args.consumeFlag("--shrink"); // the default; accepted for symmetry
  const std::string family = args.consumeOption("--family", "");
  if (!family.empty()) {
    if (family == "general") {
      options.generator.onlyFamily = fuzz::BaseFamily::General;
    } else if (family == "clifford+t") {
      options.generator.onlyFamily = fuzz::BaseFamily::CliffordT;
    } else if (family == "clifford") {
      options.generator.onlyFamily = fuzz::BaseFamily::Clifford;
    } else if (family == "reversible") {
      options.generator.onlyFamily = fuzz::BaseFamily::Reversible;
    } else {
      std::cerr << "unknown family: " << family << "\n";
      return 2;
    }
  }
  const std::string outDir = args.consumeOption("--out", "");
  const FlightFlags flightFlags = parseFlightFlags(args);
  FlightScope flight(flightFlags);
  options.flight = flight.get();
  if (args.consumeFlag("--progress")) {
    options.progress = [](std::size_t done, std::size_t total) {
      std::cerr << "\rfuzz: " << done << "/" << total << std::flush;
      if (done == total) {
        std::cerr << "\n";
      }
    };
  }
  if (!args.empty()) {
    std::cerr << "unexpected argument: " << args.next("") << "\n";
    return 2;
  }

  const fuzz::FuzzReport report = fuzz::runFuzz(options);
  std::cout << fuzz::summarize(options, report);
  if (const std::string dumpPath =
          flight.dump("postmortem-fuzz.jsonl", "complete", "fuzz", nullptr);
      !dumpPath.empty()) {
    std::cout << "postmortem: " << dumpPath << "\n";
  }

  if (!report.disagreements.empty()) {
    std::ostream* out = &std::cout;
    std::ofstream file;
    std::string reproPath;
    if (!outDir.empty()) {
      std::filesystem::create_directories(outDir);
      reproPath = outDir + "/reproducers.jsonl";
      file.open(reproPath);
      if (!file) {
        std::cerr << "cannot open " << reproPath << "\n";
        return 2;
      }
      out = &file;
    }
    for (const fuzz::Disagreement& d : report.disagreements) {
      *out << fuzz::toJsonLine(d.reproducer) << "\n";
    }
    if (!reproPath.empty()) {
      std::cout << "wrote " << report.disagreements.size()
                << " reproducer(s) to " << reproPath << "\n";
    }
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(2);
  }
  ArgCursor args;
  for (int i = 2; i < argc; ++i) {
    args.args.emplace_back(argv[i]);
  }
  const std::string command = argv[1];
  try {
    if (command == "check") {
      return runCheck(args);
    }
    if (command == "batch") {
      return runBatch(args);
    }
    if (command == "serve") {
      return runServe(args);
    }
    if (command == "submit") {
      return runSubmit(args);
    }
    if (command == "status") {
      return runStatus(args);
    }
    if (command == "shutdown") {
      return runShutdown(args);
    }
    if (command == "lint") {
      return runLint(args);
    }
    if (command == "profile") {
      return runProfile(args);
    }
    if (command == "sim") {
      return runSim(args);
    }
    if (command == "info") {
      return runInfo(args);
    }
    if (command == "convert") {
      return runConvert(args);
    }
    if (command == "gen") {
      return runGen(args);
    }
    if (command == "fuzz") {
      return runFuzzCmd(args);
    }
    if (command == "bench-diff") {
      return runBenchDiff(args);
    }
    if (command == "report") {
      return runReport(args);
    }
    if (command == "metrics-export") {
      return runMetricsExport(args);
    }
    if (command == "--help" || command == "-h" || command == "help") {
      usage(0);
    }
    std::cerr << "unknown command: " << command << "\n";
    usage(2);
  } catch (const io::ParseError& e) {
    std::cerr << "invalid input: " << e.what() << "\n";
    return 4;
  } catch (const util::JsonParseError& e) {
    std::cerr << "invalid input: " << e.what() << "\n";
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

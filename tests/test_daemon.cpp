// Lifecycle tests of the qsimec daemon (src/daemon): wire-protocol
// round-trips, warm-cache second submissions (zero checker dispatches,
// byte-identical redacted responses), priority ordering with a paused
// engine, admission control under overload, graceful drain (stop flag and
// shutdown op), cache warmth across a daemon restart, spool-directory
// intake, the status / OpenMetrics endpoints, and one request followed by
// its id through the journal. The daemon runs in-process; one test spawns
// the real binary and SIGTERMs it.

#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "gen/qft.hpp"
#include "gen/revlib_like.hpp"
#include "io/qasm.hpp"
#include "io/real.hpp"
#include "obs/openmetrics.hpp"
#include "obs/run_report.hpp"
#include "svc/batch.hpp"
#include "util/json_parse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

namespace {

using namespace qsimec;
namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ------------------------------------------------------------------ protocol

TEST(DaemonProtocol, HeaderRoundTripAndDefaults) {
  daemon::RequestHeader header;
  header.op = daemon::RequestOp::Submit;
  header.client = "tester";
  header.priority = 1;
  header.redact = true;
  const daemon::RequestHeader back =
      daemon::parseRequestHeader(daemon::toJsonLine(header));
  EXPECT_EQ(back.op, daemon::RequestOp::Submit);
  EXPECT_EQ(back.client, "tester");
  EXPECT_EQ(back.priority, 1);
  EXPECT_TRUE(back.redact);

  // a bare submit line gets the documented defaults
  const daemon::RequestHeader bare = daemon::parseRequestHeader(
      "{\"schema\":\"qsimec-daemon-v1\",\"op\":\"submit\"}");
  EXPECT_EQ(bare.client, "anonymous");
  EXPECT_EQ(bare.priority, daemon::kDefaultPriority);
  EXPECT_FALSE(bare.redact);
}

TEST(DaemonProtocol, HeaderClampsAndRejects) {
  // out-of-range priorities clamp into [0, kPriorities)
  const daemon::RequestHeader low = daemon::parseRequestHeader(
      "{\"schema\":\"qsimec-daemon-v1\",\"op\":\"submit\",\"priority\":-3}");
  EXPECT_EQ(low.priority, 0);
  const daemon::RequestHeader high = daemon::parseRequestHeader(
      "{\"schema\":\"qsimec-daemon-v1\",\"op\":\"submit\",\"priority\":99}");
  EXPECT_EQ(high.priority, daemon::kPriorities - 1);
  // beyond int's range too: the value is clamped before it becomes an int
  for (const auto& [text, want] :
       {std::pair{"1e10", daemon::kPriorities - 1},
        std::pair{"1e300", daemon::kPriorities - 1}, std::pair{"-1e10", 0}}) {
    SCOPED_TRACE(text);
    EXPECT_EQ(daemon::parseRequestHeader(
                  std::string("{\"schema\":\"qsimec-daemon-v1\",\"op\":"
                              "\"submit\",\"priority\":") +
                  text + "}")
                  .priority,
              want);
  }

  EXPECT_THROW((void)daemon::parseRequestHeader("not json"),
               std::runtime_error);
  EXPECT_THROW((void)daemon::parseRequestHeader(
                   "{\"schema\":\"qsimec-daemon-v1\",\"op\":\"dance\"}"),
               std::runtime_error);
  EXPECT_THROW((void)daemon::parseRequestHeader(
                   "{\"schema\":\"some-other-v9\",\"op\":\"submit\"}"),
               std::runtime_error);
}

TEST(DaemonProtocol, AdmissionLineIsConstant) {
  // byte-determinism of a response stream hinges on the ack never varying
  EXPECT_EQ(daemon::acceptedLine(),
            "{\"schema\":\"qsimec-daemon-v1\",\"accepted\":true}");
  const std::string rejection = daemon::errorLine("overload", "queue full");
  EXPECT_NE(rejection.find("\"accepted\":false"), std::string::npos);
  EXPECT_NE(rejection.find("\"error\":\"overload\""), std::string::npos);
}

// ------------------------------------------------------------------- fixture

class DaemonTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("qsimec_daemon_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    write("qft_a.qasm", gen::qft(3));
    write("qft_b.qasm", gen::qftAlternative(3));
    write("inc.real", gen::incrementCircuit(3));
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write(const std::string& name, const ir::QuantumComputation& qc) {
    std::ofstream os(dir_ / name);
    if (name.ends_with(".real")) {
      io::writeReal(qc, os);
    } else {
      io::writeQasm(qc, os);
    }
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Two cacheable proofs: one equivalent pair, one distinct-circuit pair.
  [[nodiscard]] std::string manifestText() const {
    return "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
           path("qft_b.qasm") + "\"}\n"
           "{\"g\": \"" + path("inc.real") + "\", \"gp\": \"" +
           path("inc.real") + "\"}\n";
  }

  [[nodiscard]] daemon::DaemonOptions baseOptions() const {
    daemon::DaemonOptions options;
    options.socketPath = path("d.sock");
    options.threads = 2;
    options.base.complete.timeoutSeconds = 60.0;
    return options;
  }

  /// Poll the daemon until `completed` requests finished (engine work is
  /// asynchronous after a --no-wait submission).
  static void awaitCompleted(const daemon::Daemon& d, std::uint64_t completed,
                             std::chrono::seconds limit = 30s) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (d.completedRequests() < completed) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "daemon did not complete " << completed << " request(s)";
      std::this_thread::sleep_for(10ms);
    }
  }

  [[nodiscard]] static util::JsonValue status(const daemon::Daemon& d) {
    return util::parseJson(d.statusJson());
  }

  fs::path dir_;
};

// ------------------------------------------------------------------ lifecycle

TEST_F(DaemonTest, SubmitRoundTripMatchesADirectBatchRun) {
  // the daemon must be a transparent wrapper: same manifest, same verdict
  // lines (redacted form strips the provenance that legitimately differs)
  std::istringstream is(manifestText());
  ec::FlowConfiguration base;
  base.complete.timeoutSeconds = 60.0;
  const svc::BatchManifest manifest = svc::parseManifest(is, base);
  svc::BatchOptions direct;
  direct.threads = 2;
  svc::BatchScheduler scheduler(direct);
  const svc::BatchResult expected = scheduler.run(manifest);

  daemon::Daemon d(baseOptions());
  d.start();
  daemon::SubmitOptions submit;
  submit.redact = true;
  const daemon::SubmitResult result =
      daemon::submitManifestText(path("d.sock"), manifestText(), submit);
  ASSERT_TRUE(result.accepted) << result.error << ": " << result.message;
  ASSERT_EQ(result.lines.size(), expected.outcomes.size() + 1);
  const svc::BatchSerializeOptions redacted{true, true};
  for (std::size_t i = 0; i < expected.outcomes.size(); ++i) {
    EXPECT_EQ(result.lines[i], svc::toJsonLine(expected.outcomes[i], redacted));
  }
  EXPECT_EQ(result.lines.back(),
            svc::toJsonLine(expected.summary, redacted));
  EXPECT_EQ(daemon::submitExitCode(result), 0);

  d.requestShutdown();
  d.run();
}

TEST_F(DaemonTest, WarmSecondSubmissionDispatchesNothingAndMatchesBytes) {
  daemon::Daemon d(baseOptions());
  d.start();
  daemon::SubmitOptions submit;
  submit.redact = true;
  submit.client = "first";
  const daemon::SubmitResult cold =
      daemon::submitManifestText(path("d.sock"), manifestText(), submit);
  ASSERT_TRUE(cold.accepted);

  submit.client = "second";
  const daemon::SubmitResult warm =
      daemon::submitManifestText(path("d.sock"), manifestText(), submit);
  ASSERT_TRUE(warm.accepted);

  // byte-identical response: the acceptance criterion of daemon warmth
  EXPECT_EQ(cold.lines, warm.lines);

  // and zero checker dispatches for the warm client — everything was
  // answered out of the resident cache
  const util::JsonValue doc = status(d);
  EXPECT_EQ(doc.at("pairs").at("cache_hits").asUint(), 2U);
  const util::JsonValue& second = doc.at("clients").at("second");
  EXPECT_EQ(second.at("dispatched").asUint(), 0U);
  EXPECT_EQ(second.at("cache_hits").asUint(), 2U);
  const util::JsonValue& first = doc.at("clients").at("first");
  EXPECT_EQ(first.at("dispatched").asUint(), 2U);

  d.requestShutdown();
  d.run();
}

// The resident cache's byte front answers a warm request without a parse:
// one digest hit per pair, in the status document and the scrape alike,
// and the redacted response is byte-identical to the cold one.
TEST_F(DaemonTest, WarmRequestIsKeyedFromItsBytes) {
  daemon::Daemon d(baseOptions());
  d.start();
  daemon::SubmitOptions submit;
  submit.redact = true;
  const daemon::SubmitResult cold =
      daemon::submitManifestText(path("d.sock"), manifestText(), submit);
  ASSERT_TRUE(cold.accepted);
  EXPECT_EQ(status(d).at("cache").at("digest_hits").asUint(), 0U);

  const daemon::SubmitResult warm =
      daemon::submitManifestText(path("d.sock"), manifestText(), submit);
  ASSERT_TRUE(warm.accepted);
  EXPECT_EQ(warm.lines, cold.lines);
  EXPECT_EQ(status(d).at("cache").at("digest_hits").asUint(), 2U);
  const std::string metrics = daemon::fetchMetrics(path("d.sock"));
  EXPECT_TRUE(obs::validateOpenMetrics(metrics).empty());
  EXPECT_NE(metrics.find("qsimec_svc_cache_digest_hit_total 2\n"),
            std::string::npos)
      << metrics;

  d.requestShutdown();
  d.run();
}

TEST_F(DaemonTest, PausedEngineDrainsByPriorityThenFifo) {
  daemon::DaemonOptions options = baseOptions();
  options.agingSeconds = 0; // keep priorities exact for the assertion
  daemon::Daemon d(options);
  d.start();
  d.pauseEngine();

  const auto submit = [&](const std::string& client, int priority) {
    daemon::SubmitOptions s;
    s.client = client;
    s.priority = priority;
    s.wait = false; // the engine is paused; only collect the admission ack
    const daemon::SubmitResult r =
        daemon::submitManifestText(path("d.sock"), manifestText(), s);
    ASSERT_TRUE(r.accepted) << client << ": " << r.error;
  };
  submit("late", 3); // admitted first, but least urgent
  submit("urgent_one", 1);
  submit("urgent_two", 1);

  d.resumeEngine();
  awaitCompleted(d, 3);

  // recent[] is newest-first: the low-priority request finished last, the
  // two urgent ones ran in admission (FIFO) order
  const util::JsonValue doc = status(d);
  const auto& recent = doc.at("recent").elements();
  ASSERT_EQ(recent.size(), 3U);
  EXPECT_EQ(recent[0].at("client").asString(), "late");
  EXPECT_EQ(recent[1].at("client").asString(), "urgent_two");
  EXPECT_EQ(recent[2].at("client").asString(), "urgent_one");

  d.requestShutdown();
  d.run();
}

TEST_F(DaemonTest, OverloadIsAnExplicitRejectionNotAHang) {
  daemon::DaemonOptions options = baseOptions();
  options.maxQueueDepth = 1;
  daemon::Daemon d(options);
  d.start();
  d.pauseEngine();

  daemon::SubmitOptions fireAndForget;
  fireAndForget.wait = false;
  const daemon::SubmitResult first = daemon::submitManifestText(
      path("d.sock"), manifestText(), fireAndForget);
  ASSERT_TRUE(first.accepted);

  // the queue is at capacity and the engine is paused: the answer must be
  // an immediate overload line, never a wait
  const daemon::SubmitResult second = daemon::submitManifestText(
      path("d.sock"), manifestText(), fireAndForget);
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(second.error, "overload");
  EXPECT_EQ(d.rejectedRequests(), 1U);
  EXPECT_EQ(daemon::submitExitCode(second), 5);

  d.resumeEngine();
  awaitCompleted(d, 1);
  d.requestShutdown();
  d.run();
}

TEST_F(DaemonTest, DrainFinishesEveryAdmittedRequest) {
  daemon::Daemon d(baseOptions());
  d.start();
  d.pauseEngine();

  daemon::SubmitOptions fireAndForget;
  fireAndForget.wait = false;
  for (int i = 0; i < 2; ++i) {
    const daemon::SubmitResult r = daemon::submitManifestText(
        path("d.sock"), manifestText(), fireAndForget);
    ASSERT_TRUE(r.accepted);
  }

  // the drain overrides the pause and answers both requests before run()
  // returns — admitted work is a promise
  d.requestShutdown();
  d.run();
  EXPECT_EQ(d.completedRequests(), 2U);
}

TEST_F(DaemonTest, StopFlagTriggersTheSameGracefulDrain) {
  std::atomic<bool> stop{false};
  daemon::DaemonOptions options = baseOptions();
  options.stopFlag = &stop; // the CLI's SIGTERM handler, simulated
  daemon::Daemon d(options);
  d.start();
  const daemon::SubmitResult r =
      daemon::submitManifestText(path("d.sock"), manifestText());
  ASSERT_TRUE(r.accepted);
  stop.store(true);
  d.run(); // returns once the acceptor notices the flag and drains
  EXPECT_EQ(d.completedRequests(), 1U);
  EXPECT_FALSE(fs::exists(path("d.sock"))) << "socket file must be removed";
}

TEST_F(DaemonTest, CacheWarmthSurvivesARestart) {
  daemon::DaemonOptions options = baseOptions();
  options.cachePath = path("cache.jsonl");
  {
    daemon::Daemon d(options);
    d.start();
    const daemon::SubmitResult r =
        daemon::submitManifestText(path("d.sock"), manifestText());
    ASSERT_TRUE(r.accepted);
    d.requestShutdown();
    d.run();
  }
  ASSERT_TRUE(fs::exists(path("cache.jsonl")));

  // a fresh daemon process (same cache file) must answer the same manifest
  // without dispatching a single checker job
  daemon::Daemon restarted(options);
  restarted.start();
  const daemon::SubmitResult warm =
      daemon::submitManifestText(path("d.sock"), manifestText());
  ASSERT_TRUE(warm.accepted);
  const util::JsonValue doc = status(restarted);
  EXPECT_EQ(doc.at("pairs").at("dispatched").asUint(), 0U);
  EXPECT_EQ(doc.at("pairs").at("cache_hits").asUint(), 2U);
  restarted.requestShutdown();
  restarted.run();
}

TEST_F(DaemonTest, SpoolManifestIsProcessedEndToEnd) {
  daemon::DaemonOptions options = baseOptions();
  options.spoolDir = path("spool");
  options.spoolPollSeconds = 0.05;
  daemon::Daemon d(options);
  d.start();

  // land the manifest atomically: write elsewhere, rename into in/
  std::ofstream(dir_ / "job1.tmp") << manifestText();
  fs::rename(dir_ / "job1.tmp", dir_ / "spool" / "in" / "job1.jsonl");

  const fs::path results = dir_ / "spool" / "out" / "job1.results.jsonl";
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!fs::exists(dir_ / "spool" / "done" / "job1.jsonl")) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "spool manifest was not processed";
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_TRUE(fs::exists(results));
  std::ifstream is(results);
  std::stringstream text;
  text << is.rdbuf();
  EXPECT_NE(text.str().find("\"equivalence\":\"equivalent\""),
            std::string::npos);
  EXPECT_NE(text.str().find("\"summary\":true"), std::string::npos);
  EXPECT_TRUE(fs::is_empty(dir_ / "spool" / "in"));
  EXPECT_TRUE(fs::is_empty(dir_ / "spool" / "work"));

  const util::JsonValue doc = status(d);
  EXPECT_EQ(doc.at("clients").at("spool").at("pairs").asUint(), 2U);
  d.requestShutdown();
  d.run();
}

TEST_F(DaemonTest, UnparseableSpoolManifestLandsInFailed) {
  daemon::DaemonOptions options = baseOptions();
  options.spoolDir = path("spool");
  options.spoolPollSeconds = 0.05;
  daemon::Daemon d(options);
  d.start();

  std::ofstream(dir_ / "bad.tmp") << "this is not a manifest\n";
  fs::rename(dir_ / "bad.tmp", dir_ / "spool" / "in" / "bad.jsonl");

  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!fs::exists(dir_ / "spool" / "failed" / "bad.jsonl")) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "bad manifest was not quarantined";
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_TRUE(fs::exists(dir_ / "spool" / "failed" / "bad.error.txt"));
  EXPECT_TRUE(fs::is_empty(dir_ / "spool" / "out"));
  // refused at intake, on the one rejection path
  const util::JsonValue doc = status(d);
  EXPECT_EQ(doc.at("clients").at("spool").at("rejected").asUint(), 1U);
  EXPECT_EQ(doc.at("admission").at("rejected").asUint(), 1U);
  EXPECT_EQ(doc.at("requests").at("accepted").asUint(), 0U);
  d.requestShutdown();
  d.run();
}

// A manifest that does not parse is refused at admission: the response is
// one error line, with no accepted line before it.
TEST_F(DaemonTest, BadSocketManifestGetsAnExplicitErrorLine) {
  daemon::Daemon d(baseOptions());
  d.start();
  const daemon::Socket raw = daemon::connectUnix(path("d.sock"));
  daemon::RequestHeader header;
  header.op = daemon::RequestOp::Submit;
  daemon::writeAll(raw, daemon::toJsonLine(header) + "\ndefinitely not json\n");
  daemon::shutdownWrite(raw);
  const std::string response = daemon::readAll(raw, 30.0);
  ASSERT_EQ(std::count(response.begin(), response.end(), '\n'), 1) << response;
  const util::JsonValue line = util::parseJson(response);
  EXPECT_FALSE(line.at("accepted").asBool());
  EXPECT_EQ(line.at("error").asString(), "manifest");

  const daemon::SubmitResult r =
      daemon::submitManifestText(path("d.sock"), "definitely not json\n");
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.error, "manifest");
  EXPECT_TRUE(r.lines.empty());
  EXPECT_EQ(daemon::submitExitCode(r), 5);
  daemon::SubmitOptions fireAndForget;
  fireAndForget.wait = false;
  EXPECT_EQ(daemon::submitManifestText(path("d.sock"), "definitely not json\n",
                                       fireAndForget)
                .error,
            "manifest");
  EXPECT_EQ(d.rejectedRequests(), 3U);
  d.requestShutdown();
  d.run();
}

// An invalid pair's result line carries an `error` key, yet it is a result
// line like any other after the accepted line. A manifest whose first pair
// is invalid input comes back whole and exits 4, in the client library and
// in `qsimec submit` alike.
TEST_F(DaemonTest, FirstPairInvalidReturnsEveryLine) {
  std::ofstream(dir_ / "bad.qasm") << "OPENQASM 2.0;\nqreg q[2];\nfoo q[0];\n";
  const std::string manifest = "{\"g\": \"" + path("bad.qasm") +
                               "\", \"gp\": \"" + path("bad.qasm") + "\"}\n" +
                               manifestText();
  daemon::Daemon d(baseOptions());
  d.start();
  const daemon::SubmitResult r =
      daemon::submitManifestText(path("d.sock"), manifest);
  ASSERT_TRUE(r.accepted) << r.error << ": " << r.message;
  ASSERT_EQ(r.lines.size(), 4U); // three results and the summary
  EXPECT_NE(r.lines[0].find("\"index\":0"), std::string::npos) << r.lines[0];
  EXPECT_NE(r.lines[0].find("\"error\""), std::string::npos) << r.lines[0];
  EXPECT_EQ(daemon::submitExitCode(r), 4);

  std::ofstream(dir_ / "m.jsonl") << manifest;
  const int status = std::system((std::string(QSIMEC_CLI_PATH) + " submit " +
                                  path("m.jsonl") + " --socket " +
                                  path("d.sock") + " >/dev/null 2>&1")
                                     .c_str());
  ASSERT_NE(status, -1);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 4);
  d.requestShutdown();
  d.run();
}

// The resident pool checks a request's first misses while the scheduler
// keys the rest of it. A request with a repeated pair, an unreadable pair
// and pairs an earlier request made warm gets the same response and the
// same counts at every pool size.
TEST_F(DaemonTest, RequestAnswersAlikeAtEveryPoolSize) {
  const auto pairLine = [this](const std::string& g, const std::string& gp) {
    return "{\"g\": \"" + path(g) + "\", \"gp\": \"" + path(gp) + "\"}\n";
  };
  const std::string manifest =
      pairLine("qft_a.qasm", "qft_b.qasm") + pairLine("inc.real", "inc.real") +
      pairLine("missing.qasm", "inc.real") +
      pairLine("qft_a.qasm", "qft_b.qasm") +
      pairLine("qft_b.qasm", "qft_a.qasm") + pairLine("inc.real", "inc.real");
  std::vector<std::string> reference;
  for (const unsigned threads : {1U, 2U, 4U}) {
    SCOPED_TRACE(threads);
    daemon::DaemonOptions options = baseOptions();
    options.threads = threads;
    daemon::Daemon d(options);
    d.start();
    daemon::SubmitOptions submit;
    submit.redact = true;
    submit.client = "primer";
    ASSERT_TRUE(daemon::submitManifestText(path("d.sock"),
                                           pairLine("inc.real", "inc.real"),
                                           submit)
                    .accepted);
    submit.client = "mixed";
    const daemon::SubmitResult r =
        daemon::submitManifestText(path("d.sock"), manifest, submit);
    ASSERT_TRUE(r.accepted) << r.error << ": " << r.message;
    ASSERT_EQ(r.lines.size(), 7U);
    if (reference.empty()) {
      reference = r.lines;
    } else {
      EXPECT_EQ(r.lines, reference);
    }
    const util::JsonValue row = status(d).at("clients").at("mixed");
    EXPECT_EQ(row.at("pairs").asUint(), 6U);
    EXPECT_EQ(row.at("cache_hits").asUint(), 2U);
    EXPECT_EQ(row.at("dispatched").asUint(), 2U);
    d.requestShutdown();
    d.run();
  }
}

TEST_F(DaemonTest, StatusAndMetricsEndpointsAreWellFormed) {
  daemon::Daemon d(baseOptions());
  d.start();
  const daemon::SubmitResult r =
      daemon::submitManifestText(path("d.sock"), manifestText());
  ASSERT_TRUE(r.accepted);

  // the status document over the socket and the in-process one agree on
  // schema and counters
  const util::JsonValue doc =
      util::parseJson(daemon::fetchStatus(path("d.sock")));
  EXPECT_EQ(doc.at("schema").asString(), "qsimec-daemon-status-v1");
  EXPECT_EQ(doc.at("state").asString(), "running");
  EXPECT_EQ(doc.at("queue").at("depth").asUint(), 0U);
  EXPECT_EQ(doc.at("requests").at("completed").asUint(), 1U);
  EXPECT_EQ(doc.at("pairs").at("total").asUint(), 2U);
  EXPECT_GE(doc.at("cache").at("size").asUint(), 2U);
  EXPECT_EQ(doc.at("queue").at("by_priority").elements().size(),
            static_cast<std::size_t>(daemon::kPriorities));

  // the OpenMetrics scrape passes the promtool-style validator and carries
  // the daemon and cache families
  const std::string metrics = daemon::fetchMetrics(path("d.sock"));
  const auto issues = obs::validateOpenMetrics(metrics);
  EXPECT_TRUE(issues.empty())
      << (issues.empty() ? "" : issues.front().message);
  EXPECT_NE(metrics.find("daemon_requests_completed"), std::string::npos);
  EXPECT_NE(metrics.find("svc_cache_size"), std::string::npos);
  EXPECT_NE(metrics.find("svc_pairs_dispatched"), std::string::npos);

  d.requestShutdown();
  d.run();
}

// Every status counter is read from the metrics registry, so after accepted
// requests and overloaded and malformed ones it equals its scrape counter.
TEST_F(DaemonTest, StatusCountersEqualTheScrapeCounters) {
  daemon::DaemonOptions options = baseOptions();
  options.maxQueueDepth = 1;
  daemon::Daemon d(options);
  d.start();
  d.pauseEngine();
  daemon::SubmitOptions fireAndForget;
  fireAndForget.wait = false;
  ASSERT_TRUE(daemon::submitManifestText(path("d.sock"), manifestText(),
                                         fireAndForget)
                  .accepted);
  EXPECT_EQ(daemon::submitManifestText(path("d.sock"), manifestText(),
                                       fireAndForget)
                .error,
            "overload");
  d.resumeEngine();
  awaitCompleted(d, 1);
  EXPECT_EQ(
      daemon::submitManifestText(path("d.sock"), "definitely not json\n")
          .error,
      "manifest");
  ASSERT_TRUE(
      daemon::submitManifestText(path("d.sock"), manifestText()).accepted);

  std::map<std::string, std::uint64_t> scraped;
  std::istringstream scrape(daemon::fetchMetrics(path("d.sock")));
  for (std::string line; std::getline(scrape, line);) {
    const std::size_t space = line.find(' ');
    if (line.starts_with('#') || space == std::string::npos) {
      continue;
    }
    scraped[line.substr(0, space)] = std::stoull(line.substr(space + 1));
  }
  const util::JsonValue doc = status(d);
  const auto expectCounter = [&](const util::JsonValue& field,
                                 const std::string& family,
                                 std::uint64_t value) {
    const std::string sample = "qsimec_" + family + "_total";
    SCOPED_TRACE(sample);
    ASSERT_EQ(scraped.count(sample), 1U);
    EXPECT_EQ(field.asUint(), scraped.at(sample));
    EXPECT_EQ(field.asUint(), value);
  };
  const util::JsonValue& requests = doc.at("requests");
  expectCounter(requests.at("accepted"), "daemon_requests_accepted", 2);
  expectCounter(requests.at("completed"), "daemon_requests_completed", 2);
  EXPECT_EQ(requests.find("failed"), nullptr);
  EXPECT_EQ(scraped.count("qsimec_daemon_requests_failed_total"), 0U);
  expectCounter(doc.at("admission").at("rejected"),
                "daemon_requests_rejected", 2);
  const util::JsonValue& pairs = doc.at("pairs");
  expectCounter(pairs.at("total"), "svc_pairs", 4);
  expectCounter(pairs.at("cache_hits"), "svc_cache_hit", 2);
  expectCounter(pairs.at("dispatched"), "svc_pairs_dispatched", 2);
  expectCounter(pairs.at("stalled"), "svc_pairs_stalled", 0);
  // a cold request (two misses, two stores), then a warm one keyed from
  // its bytes (two hits)
  const util::JsonValue& cache = doc.at("cache");
  expectCounter(cache.at("hits"), "svc_cache_hit", 2);
  expectCounter(cache.at("misses"), "svc_cache_miss", 2);
  expectCounter(cache.at("stores"), "svc_cache_store", 2);
  expectCounter(cache.at("digest_hits"), "svc_cache_digest_hit", 2);
  EXPECT_EQ(d.completedRequests(), 2U);
  EXPECT_EQ(d.rejectedRequests(), 2U);

  d.requestShutdown();
  d.run();
}

// Any local peer names itself, so the clients table keeps at most
// kMaxClientRows named rows; later names share the overflow row, and over
// accepted, overloaded and malformed requests the rows still add up to the
// status totals.
TEST_F(DaemonTest, ClientTableIsBoundedAndAddsUpToTheTotals) {
  daemon::DaemonOptions options = baseOptions();
  options.maxQueueDepth = 1;
  daemon::Daemon d(options);
  d.start();
  const std::size_t names = daemon::kMaxClientRows + 3;
  daemon::SubmitOptions submit;
  for (std::size_t i = 0; i < names; ++i) {
    submit.client = std::to_string(i);
    ASSERT_TRUE(
        daemon::submitManifestText(path("d.sock"), manifestText(), submit)
            .accepted)
        << submit.client;
  }

  // a queued request fills the queue; every later submit is rejected
  d.pauseEngine();
  submit.wait = false;
  submit.client = "queued";
  ASSERT_TRUE(
      daemon::submitManifestText(path("d.sock"), manifestText(), submit)
          .accepted);
  for (const std::string client : {"0", "r0", "r1", "r2"}) {
    submit.client = client;
    EXPECT_EQ(
        daemon::submitManifestText(path("d.sock"), manifestText(), submit)
            .error,
        "overload")
        << client;
  }
  // the manifest is decided first: a full queue does not hide its error
  submit.client = "1";
  EXPECT_EQ(daemon::submitManifestText(path("d.sock"), "definitely not json\n",
                                       submit)
                .error,
            "manifest");
  d.resumeEngine();
  awaitCompleted(d, names + 1);

  const util::JsonValue doc = status(d);
  const util::JsonValue& clients = doc.at("clients");
  EXPECT_EQ(clients.members().size(), daemon::kMaxClientRows + 1);
  const util::JsonValue& overflow = clients.at(daemon::kOverflowClient);
  // the three names past the cap, then "queued"
  EXPECT_EQ(overflow.at("requests").asUint(), 4U);
  EXPECT_EQ(overflow.at("rejected").asUint(), 3U); // r0..r2
  EXPECT_EQ(clients.at("0").at("rejected").asUint(), 1U);
  EXPECT_EQ(clients.at("1").at("rejected").asUint(), 1U);

  std::map<std::string, std::uint64_t> sums;
  for (const auto& [name, row] : clients.members()) {
    for (const char* field :
         {"requests", "pairs", "cache_hits", "dispatched", "rejected"}) {
      sums[field] += row.at(field).asUint();
    }
  }
  EXPECT_EQ(sums["requests"], doc.at("requests").at("completed").asUint());
  EXPECT_EQ(sums["pairs"], doc.at("pairs").at("total").asUint());
  EXPECT_EQ(sums["cache_hits"], doc.at("pairs").at("cache_hits").asUint());
  EXPECT_EQ(sums["dispatched"], doc.at("pairs").at("dispatched").asUint());
  EXPECT_EQ(sums["rejected"], doc.at("admission").at("rejected").asUint());
  EXPECT_EQ(sums["requests"], names + 1);
  EXPECT_EQ(sums["rejected"], 5U);

  d.requestShutdown();
  d.run();
}

// One request followed by its id: from admission to its done line every
// journal line carries `request_id`, the pair, flow and GC lines also
// `pair_id`, and the stalled pair's postmortem is labelled with both.
TEST_F(DaemonTest, JournalFollowsOneRequestById) {
  daemon::DaemonOptions options = baseOptions();
  options.journalPath = path("daemon.jsonl");
  options.postmortemDir = path("pm");
  options.stallQuietSeconds = 0.25;
  // pair 0 wedges its worker until the watchdog resolves it; pair 1 runs
  // the flow's DD stages
  const std::string manifest =
      "{\"g\": \"" + path("inc.real") + "\", \"gp\": \"" + path("inc.real") +
      "\"}\n{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\"}\n";
  ASSERT_EQ(::setenv("QSIMEC_SELFTEST_STALL_WORKER", "0", 1), 0);
  {
    daemon::Daemon d(options);
    d.start();
    const daemon::SubmitResult r =
        daemon::submitManifestText(path("d.sock"), manifest);
    EXPECT_TRUE(r.accepted) << r.error << ": " << r.message;
    d.requestShutdown();
    d.run();
  }
  ::unsetenv("QSIMEC_SELFTEST_STALL_WORKER");

  std::vector<util::JsonValue> lines;
  std::ifstream journal(path("daemon.jsonl"));
  for (std::string line; std::getline(journal, line);) {
    lines.push_back(util::parseJson(line));
  }
  const auto indexOf = [&lines](const std::string& event) {
    return static_cast<std::size_t>(
        std::find_if(lines.begin(), lines.end(),
                     [&event](const util::JsonValue& v) {
                       return v.at("event").asString() == event;
                     }) -
        lines.begin());
  };
  const std::size_t accepted = indexOf("daemon.request.accepted");
  const std::size_t done = indexOf("daemon.request.done");
  ASSERT_LT(accepted, done);
  const std::uint64_t requestId = lines[accepted].at("request_id").asUint();

  std::set<std::uint64_t> flowPairs;
  std::set<std::uint64_t> gcPairs;
  std::set<std::uint64_t> stalledPairs;
  for (std::size_t i = accepted; i <= done; ++i) {
    const util::JsonValue& v = lines[i];
    const std::string& event = v.at("event").asString();
    SCOPED_TRACE(event);
    ASSERT_NE(v.find("request_id"), nullptr);
    EXPECT_EQ(v.at("request_id").asUint(), requestId);
    const bool perPair = event.starts_with("svc.pair.") ||
                         event.starts_with("flow.") || event == "dd.gc";
    if (!perPair) {
      continue;
    }
    ASSERT_NE(v.find("pair_id"), nullptr);
    const std::uint64_t pair = v.at("pair_id").asUint();
    if (event.starts_with("flow.")) {
      flowPairs.insert(pair);
    } else if (event == "dd.gc") {
      gcPairs.insert(pair);
    } else if (event == "svc.pair.stalled") {
      stalledPairs.insert(pair);
    }
  }
  EXPECT_EQ(flowPairs, std::set<std::uint64_t>{1});
  EXPECT_EQ(gcPairs, std::set<std::uint64_t>{1});
  EXPECT_EQ(stalledPairs, std::set<std::uint64_t>{0});

  std::ifstream dump(path("pm/postmortem-pair-0.jsonl"));
  std::vector<std::string> dumpLines;
  for (std::string line; std::getline(dump, line);) {
    dumpLines.push_back(line);
  }
  const obs::PostmortemReport report = obs::parsePostmortem(dumpLines);
  ASSERT_TRUE(report.valid) << report.error;
  EXPECT_EQ(report.reason, "stall");
  EXPECT_EQ(report.label, "request " + std::to_string(requestId) + " pair 0");
}

TEST_F(DaemonTest, ShutdownOpDrainsTheDaemon) {
  daemon::Daemon d(baseOptions());
  d.start();
  EXPECT_TRUE(daemon::sendShutdown(path("d.sock")));
  d.run();
  EXPECT_EQ(d.completedRequests(), 0U);
}

// ------------------------------------------------------------- real process

TEST_F(DaemonTest, SigtermDrainsTheRealBinaryToExitZero) {
  // the full ops contract in one subshell: serve in the background, give
  // it a request, SIGTERM it, and demand exit code 0 from the drain
  const std::string script =
      "set -e\n"
      "SOCK=" + path("real.sock") + "\n" +
      std::string(QSIMEC_CLI_PATH) + " serve --socket $SOCK 2>/dev/null &\n"
      "PID=$!\n"
      "for i in $(seq 1 50); do [ -S $SOCK ] && break; sleep 0.1; done\n" +
      std::string(QSIMEC_CLI_PATH) + " submit " + path("m.jsonl") +
      " --socket $SOCK >/dev/null\n"
      "kill -TERM $PID\n"
      "wait $PID\n";
  std::ofstream(dir_ / "m.jsonl") << manifestText();
  std::ofstream(dir_ / "drain.sh") << script;
  const int status =
      std::system(("sh " + path("drain.sh") + " 2>&1").c_str());
  ASSERT_NE(status, -1);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

} // namespace

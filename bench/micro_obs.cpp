// Micro-benchmarks guarding the observability null fast path.
//
// The contract (docs/observability.md): with no sink attached, the
// instrumentation must compile down to a null-pointer test — no clock
// reads, no allocation. BM_GateApply{Untraced,Traced} measure the real
// integration point (the DD package's gc/span hooks around gate applies);
// the untraced variant should be indistinguishable from the pre-obs
// package, while the traced one is allowed to pay for its spans.

#include "dd/attribution.hpp"
#include "ec/simulation_checker.hpp"
#include "gen/qft.hpp"
#include "obs/context.hpp"
#include "sim/dd_simulator.hpp"

#include <benchmark/benchmark.h>

using namespace qsimec;

namespace {

void BM_NullScopedSpan(benchmark::State& state) {
  const obs::Context none;
  for (auto _ : state) {
    obs::ScopedSpan span(none, "noop", "bench");
    span.arg("k", std::uint64_t{1});
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_NullScopedSpan);

void BM_ActiveScopedSpan(benchmark::State& state) {
  obs::Tracer tracer;
  const obs::Context traced{.tracer = &tracer};
  for (auto _ : state) {
    obs::ScopedSpan span(traced, "noop", "bench");
    span.arg("k", std::uint64_t{1});
    benchmark::DoNotOptimize(&span);
  }
  state.counters["spans"] =
      benchmark::Counter(static_cast<double>(tracer.events().size()));
}
BENCHMARK(BM_ActiveScopedSpan);

void BM_NullJournalEvent(benchmark::State& state) {
  for (auto _ : state) {
    obs::JournalEvent event(nullptr, obs::JournalLevel::Info, "noop");
    event.num("k", std::uint64_t{1}).flag("ok", true);
    benchmark::DoNotOptimize(&event);
  }
}
BENCHMARK(BM_NullJournalEvent);

void BM_ActiveJournalEvent(benchmark::State& state) {
  obs::Journal journal;
  for (auto _ : state) {
    obs::JournalEvent event(&journal, obs::JournalLevel::Info, "noop");
    event.num("k", std::uint64_t{1}).flag("ok", true);
    benchmark::DoNotOptimize(&event);
  }
  state.counters["lines"] =
      benchmark::Counter(static_cast<double>(journal.lineCount()));
}
BENCHMARK(BM_ActiveJournalEvent);

// The gauge-publish path the DD package pays per interrupt poll (every 1024
// steps) when a sampler is attached: a handful of relaxed stores. The
// unattached case is a single pointer test inside pollInterrupt and is
// covered by BM_GateApplyUntraced below.
void BM_LiveGaugePublish(benchmark::State& state) {
  obs::LiveGauges gauges;
  double x = 0.0;
  for (auto _ : state) {
    gauges.ddNodesLive.store(x, std::memory_order_relaxed);
    gauges.ddUniqueFill.store(x, std::memory_order_relaxed);
    gauges.ddUniqueHitRate.store(x, std::memory_order_relaxed);
    gauges.ddComputeHitRate.store(x, std::memory_order_relaxed);
    x += 1.0;
    benchmark::DoNotOptimize(&gauges);
  }
}
BENCHMARK(BM_LiveGaugePublish);

void simulateQft(std::size_t qubits, obs::Tracer* tracer,
                 benchmark::State& state) {
  const ir::QuantumComputation qc = gen::qft(qubits);
  for (auto _ : state) {
    dd::Package pkg(qc.qubits());
    pkg.attach({.tracer = tracer});
    const auto out = sim::simulate(qc, pkg.makeBasisState(1), pkg);
    benchmark::DoNotOptimize(dd::Package::size(out));
  }
}

void BM_GateApplyUntraced(benchmark::State& state) {
  simulateQft(static_cast<std::size_t>(state.range(0)), nullptr, state);
}
BENCHMARK(BM_GateApplyUntraced)->Arg(10)->Arg(14);

void BM_GateApplyTraced(benchmark::State& state) {
  obs::Tracer tracer;
  simulateQft(static_cast<std::size_t>(state.range(0)), &tracer, state);
}
BENCHMARK(BM_GateApplyTraced)->Arg(10)->Arg(14);

// Attribution's disabled path is the same null-pointer contract as the
// tracer's: sim::simulate with attr == nullptr pays one pointer test per
// gate (≤ 5 ns/gate over the pre-attribution package — compare
// BM_GateApplyUntraced against a pre-PR checkout, or eyeball its delta to
// BM_GateApplyAttributed, which pays the full begin/end sampling).
void BM_GateApplyAttributed(benchmark::State& state) {
  const ir::QuantumComputation qc =
      gen::qft(static_cast<std::size_t>(state.range(0)));
  std::size_t samples = 0;
  for (auto _ : state) {
    dd::Package pkg(qc.qubits());
    dd::AttributionCollector attr(pkg);
    const auto out = sim::simulate(qc, pkg.makeBasisState(1), pkg, nullptr,
                                   &attr, dd::AttrSide::Left);
    benchmark::DoNotOptimize(dd::Package::size(out));
    samples = attr.take().samples.size();
  }
  state.counters["samples"] =
      benchmark::Counter(static_cast<double>(samples));
}
BENCHMARK(BM_GateApplyAttributed)->Arg(10)->Arg(14);

// The enabled per-gate cost in isolation: one counter snapshot + clock read
// on each side of the gate. This bounds what --no-attr saves.
void BM_AttributionBeginEnd(benchmark::State& state) {
  dd::Package pkg(4);
  dd::AttributionCollector attr(pkg);
  std::uint32_t gate = 0;
  for (auto _ : state) {
    attr.beginGate();
    attr.endGate(dd::AttrSide::Left, gate++ % 64U);
    benchmark::DoNotOptimize(&attr);
  }
  benchmark::DoNotOptimize(attr.take().gatesApplied);
}
BENCHMARK(BM_AttributionBeginEnd);


// --- flight recorder ---------------------------------------------------------
//
// Budget (docs/flight-recorder.md): a recorded event costs <= 20 ns — one
// TLS lookup, a clock read, a bounded name copy and a release store into
// the per-thread ring. Disabled (no recorder in the obs::Context) must stay
// a single pointer test, like every other sink: two flow marks here, and
// the span mirror in BM_NullScopedSpan.

void BM_NullFlightRecord(benchmark::State& state) {
  const obs::Context none;
  for (auto _ : state) {
    none.flightMark("noop.begin");
    none.flightMark("noop.end");
    benchmark::DoNotOptimize(state.iterations());
  }
}
BENCHMARK(BM_NullFlightRecord);

void BM_FlightRecordEvent(benchmark::State& state) {
  obs::FlightRecorder recorder;
  for (auto _ : state) {
    recorder.record(obs::FlightEventKind::Journal, "bench.event", 1, 2);
    benchmark::DoNotOptimize(&recorder);
  }
  // the reported ns/iteration IS the per-event cost (budget: <= 20 ns)
  state.counters["dropped"] =
      benchmark::Counter(static_cast<double>(recorder.eventsDropped()));
}
BENCHMARK(BM_FlightRecordEvent);

// The per-interrupt-poll heartbeat the DD package pays when a recorder is
// attached: a timestamp store plus (every 64th call) one ring event.
void BM_FlightPollBeat(benchmark::State& state) {
  obs::FlightRecorder recorder;
  std::int64_t live = 0;
  for (auto _ : state) {
    recorder.pollBeat(live++, 500000);
    benchmark::DoNotOptimize(&recorder);
  }
}
BENCHMARK(BM_FlightPollBeat);

// The alternating checker's attribution-window update, twice per gate pair:
// two relaxed stores.
void BM_FlightNoteGate(benchmark::State& state) {
  obs::FlightRecorder recorder;
  std::int64_t i = 0;
  for (auto _ : state) {
    recorder.noteGate(i, i + 1);
    ++i;
    benchmark::DoNotOptimize(&recorder);
  }
}
BENCHMARK(BM_FlightNoteGate);

} // namespace

BENCHMARK_MAIN();

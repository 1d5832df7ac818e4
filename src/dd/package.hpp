// The decision-diagram package: construction and manipulation of vector and
// matrix DDs (QMDDs) in the style of [25] (simulation) and [26] (DD package
// with canonical complex numbers).
//
// Ownership model: a Package owns every node and number it hands out. Edges
// returned to callers are *weak* until the caller takes a reference with
// `incRef`; garbage collection (triggered explicitly or between top-level
// operations) reclaims everything unreferenced. A Package is single-threaded:
// exactly one thread may construct or manipulate DDs on it. Another thread
// cancels its work through an atomic flag that the owner's interrupt hook
// reads (ec::CancelFlag), never through the package itself.

#pragma once

#include "dd/compute_table.hpp"
#include "dd/gate_matrices.hpp"
#include "dd/node.hpp"
#include "dd/stats.hpp"
#include "dd/unique_table.hpp"
#include "obs/context.hpp"
#include "util/deadline.hpp"

#include <cstdint>
#include <functional>
#include <random>
#include <vector>

namespace qsimec::dd {

/// A (possibly negative) control of a quantum operation.
struct Control {
  Var qubit{};
  bool positive{true};

  [[nodiscard]] bool operator==(const Control&) const = default;
  [[nodiscard]] auto operator<=>(const Control& o) const {
    return qubit <=> o.qubit;
  }
};

class Package {
public:
  explicit Package(std::size_t nqubits);
  /// With a flight recorder attached, resets this thread's DD state cells to
  /// -1 (unpublished), so a dead package's nodes stop counting.
  ~Package();
  Package(const Package&) = delete;
  Package& operator=(const Package&) = delete;

  [[nodiscard]] std::size_t qubits() const noexcept { return nqubits_; }

  // --- canonical edges -----------------------------------------------------
  [[nodiscard]] vEdge vZero() noexcept { return {vNode::terminal(), cn_.zero()}; }
  [[nodiscard]] vEdge vTerminalOne() noexcept {
    return {vNode::terminal(), cn_.one()};
  }
  [[nodiscard]] mEdge mZero() noexcept { return {mNode::terminal(), cn_.zero()}; }
  [[nodiscard]] mEdge mTerminalOne() noexcept {
    return {mNode::terminal(), cn_.one()};
  }

  // --- node construction (normalizing) -------------------------------------
  /// Build (and hash-cons) a vector node at level `v` from two children.
  vEdge makeVNode(Var v, const std::array<vEdge, 2>& children);
  /// Build (and hash-cons) a matrix node at level `v` from four children
  /// (index = (row_bit << 1) | col_bit).
  mEdge makeMNode(Var v, const std::array<mEdge, 4>& children);

  // --- vectors --------------------------------------------------------------
  /// Computational basis state |i> on all `qubits()` qubits. Bit b of `i`
  /// is the value of qubit b.
  vEdge makeBasisState(std::uint64_t i);
  vEdge makeZeroState() { return makeBasisState(0); }

  /// Product state ⊗_q (amp[q].first |0> + amp[q].second |1>); `amp` must
  /// have one (not necessarily normalized, not both-zero) pair per qubit.
  vEdge makeProductState(
      const std::vector<std::pair<ComplexValue, ComplexValue>>& amplitudes);

  /// Amplitude <i|x> of basis state `i` in the vector `x`.
  [[nodiscard]] ComplexValue getAmplitude(const vEdge& x, std::uint64_t i) const;
  /// Dense representation (only sensible for small qubit counts).
  [[nodiscard]] std::vector<ComplexValue> getVector(const vEdge& x) const;

  /// <x|y> including conjugation of x.
  ComplexValue innerProduct(const vEdge& x, const vEdge& y);
  /// |<x|y>|^2.
  double fidelity(const vEdge& x, const vEdge& y);

  /// Squared norm <x|x> (real by construction).
  double norm2(const vEdge& x) { return innerProduct(x, x).re; }

  /// Probability that measuring qubit `q` of the (normalized) state `x`
  /// yields 1.
  double probabilityOfOne(const vEdge& x, Var q);

  /// Sample a complete computational-basis measurement outcome of the
  /// (normalized) state. `u01` must supply uniform doubles in [0, 1) — one
  /// per qubit is consumed, most-significant qubit first.
  template <class Rng> std::uint64_t sampleOutcome(const vEdge& x, Rng&& rng) {
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    return sampleOutcomeImpl(x, [&]() { return u01(rng); });
  }

  vEdge add(const vEdge& x, const vEdge& y);
  vEdge multiply(const mEdge& m, const vEdge& v);

  // --- matrices ---------------------------------------------------------
  /// Identity on `nq` qubits (levels 0 .. nq-1). nq == 0 yields the scalar 1.
  mEdge makeIdent(std::size_t nq);
  mEdge makeIdent() { return makeIdent(nqubits_); }

  /// (Multi-)controlled single-qubit gate as a matrix DD over all qubits.
  mEdge makeGateDD(const GateMatrix& mat, Var target,
                   const std::vector<Control>& controls = {});

  /// SWAP(q0, q1) built from three CNOTs.
  mEdge makeSwapDD(Var q0, Var q1);

  mEdge add(const mEdge& x, const mEdge& y);
  mEdge multiply(const mEdge& x, const mEdge& y);
  /// x ⊗ y with x on the upper (more significant) qubits.
  mEdge kronecker(const mEdge& x, const mEdge& y);
  mEdge conjugateTranspose(const mEdge& x);

  /// Entry <r|X|c> of the matrix DD.
  [[nodiscard]] ComplexValue getEntry(const mEdge& x, std::uint64_t r,
                                      std::uint64_t c) const;
  /// Dense representation (row-major, 2^n x 2^n) — small n only.
  [[nodiscard]] std::vector<std::vector<ComplexValue>>
  getMatrix(const mEdge& x) const;

  // --- reference counting & garbage collection ------------------------------
  void incRef(const vEdge& e) noexcept { incRefImpl(e); }
  void decRef(const vEdge& e) noexcept { decRefImpl(e); }
  void incRef(const mEdge& e) noexcept { incRefImpl(e); }
  void decRef(const mEdge& e) noexcept { decRefImpl(e); }

  /// Collect unreferenced nodes/numbers. With `force == false` this is a
  /// no-op unless some table exceeded its growth threshold, so it is cheap
  /// to call between gate applications.
  void garbageCollect(bool force = false);

  /// Return the package to a value-state indistinguishable from a freshly
  /// constructed one: drop the cached identities, force-collect every
  /// unreferenced node and real number (only the immortal constants
  /// survive), and reset the GC trigger thresholds and the interrupt poll
  /// phase. A computation started afterwards produces bit-identical numbers
  /// no matter what ran on the package before — the determinism barrier the
  /// parallel stimuli portfolio inserts between runs (docs/parallelism.md).
  /// Profiling counters (allocations, lookups, GC totals) keep accumulating.
  void resetComputationState();

  /// Number of distinct nodes reachable from the edge (excluding terminal).
  [[nodiscard]] static std::size_t size(const vEdge& e);
  [[nodiscard]] static std::size_t size(const mEdge& e);

  /// Limit on the total number of matrix nodes ever allocated (0 = none).
  /// Exceeding it throws ResourceLimitExceeded from inside an operation.
  void setMatrixNodeLimit(std::size_t limit) noexcept {
    mUnique_.setNodeLimit(limit);
  }

  /// Hook invoked periodically from *inside* DD operations (every few
  /// thousand recursion steps or node constructions — compute-table hits
  /// count, so dense reuse cannot starve the hook). Deadline enforcement
  /// installs a hook that throws — a single exponential multiply is then
  /// interruptible, not just the gaps between gates. Must only be called by
  /// the thread that owns the package (the hook itself is not synchronized;
  /// cross-thread cancellation is a hook that reads an atomic flag).
  void setInterruptHook(std::function<void()> hook) {
    interruptHook_ = std::move(hook);
  }

  /// Attach the observability sinks of `obs` (detach with `attach({})`);
  /// owner thread only, and the package never owns a sink. While attached,
  /// every garbage collection becomes a "dd.gc" span (tracer and flight
  /// ring) with per-table reclaim counts, a "dd.gc" journal line carrying
  /// the pause and the Context's ids (its `lane` names the worker that owns
  /// the package, so a reader can tell concurrent workers' pauses apart), a
  /// Gc flight event and a refresh of this thread's flight DD state cells;
  /// and every interrupt poll (every 1024 steps) heartbeats the flight
  /// recorder with the live-node count and unique-table fill. The metrics
  /// registry is never kept: it is single-threaded and packages run on
  /// workers. With nothing attached each hook costs a pointer test per sink.
  void attach(const obs::Context& obs) noexcept {
    obs_ = obs;
    obs_.metrics = nullptr;
  }

  /// Profile snapshot: node-pool occupancy and peaks, per-operation apply
  /// counts, table hit rates, and GC pause totals. Cheap — counters are
  /// maintained unconditionally.
  [[nodiscard]] PackageStats stats() const noexcept;

  /// The attribution profiler's sampling primitive: the handful of raw
  /// counters whose before/after delta prices one gate application. Cheaper
  /// still than stats() — a few loads, no struct-wide copy.
  [[nodiscard]] CostCounters costCounters() const noexcept {
    CostCounters c;
    c.nodesLive = vUnique_.liveNodes() + mUnique_.liveNodes();
    c.uniqueLookups = vUnique_.lookups() + mUnique_.lookups();
    c.uniqueHits = vUnique_.hits() + mUnique_.hits();
    c.computeLookups = addVTable_.lookups() + addMTable_.lookups() +
                       multMVTable_.lookups() + multMMTable_.lookups() +
                       kronTable_.lookups() + conjTable_.lookups() +
                       innerTable_.lookups();
    c.computeHits = addVTable_.hits() + addMTable_.hits() +
                    multMVTable_.hits() + multMMTable_.hits() +
                    kronTable_.hits() + conjTable_.hits() + innerTable_.hits();
    return c;
  }

  [[nodiscard]] ComplexTable& complexTable() noexcept { return cn_; }

  /// The canonical weight of a·b (of a·b·c, multiplied left to right):
  /// complexTable().lookup of the product, with no lookup when a factor is
  /// exactly one. In IEEE arithmetic (1,0)·(x,y) is (x,y) up to the sign of
  /// a zero, which the table folds, and a canonical weight interns to itself
  /// (real_table.hpp), so the product of the other factors is the answer.
  Complex mulWeights(const Complex& a, const Complex& b);
  Complex mulWeights(const Complex& a, const Complex& b, const Complex& c);

private:
  template <class EdgeT> void incRefImpl(const EdgeT& e) noexcept {
    ComplexTable::incRef(e.w);
    incRefNode(e.p);
  }
  template <class EdgeT> void decRefImpl(const EdgeT& e) noexcept {
    ComplexTable::decRef(e.w);
    decRefNode(e.p);
  }
  template <class NodeT> void incRefNode(NodeT* p) noexcept {
    if (p->ref == IMMORTAL_REF) {
      return;
    }
    if (++p->ref == 1) {
      for (const auto& child : p->e) {
        ComplexTable::incRef(child.w);
        incRefNode(child.p);
      }
    }
  }
  template <class NodeT> void decRefNode(NodeT* p) noexcept {
    if (p->ref == IMMORTAL_REF) {
      return;
    }
    if (--p->ref == 0) {
      for (const auto& child : p->e) {
        ComplexTable::decRef(child.w);
        decRefNode(child.p);
      }
    }
  }

  /// I ⊗ e one level up: the node {e, 0, 0, e} normalizes to
  /// {e.p·1, 0, 0, e.p·1} with top weight e.w (the generic argmax picks child
  /// 0, and e.w / e.w interns to exactly one), so this hash-conses that node
  /// directly. The same unique-table lookup as makeMNode, minus the argmax,
  /// the division and the re-interning.
  mEdge tensorIdentity(Var v, const mEdge& e);

  vEdge addImpl(const vEdge& x, const vEdge& y);
  mEdge addImpl(const mEdge& x, const mEdge& y);
  vEdge multiplyImpl(mNode* x, vNode* y);
  mEdge multiplyImpl(mNode* x, mNode* y);

  /// Squared norm of the subtree under `p`, top weight excluded (cached).
  double subtreeNorm2(vNode* p);
  std::uint64_t sampleOutcomeImpl(const vEdge& x,
                                  const std::function<double()>& next01);

  void clearComputeTables() noexcept;

  std::size_t nqubits_;
  ComplexTable cn_;
  UniqueTable<vNode> vUnique_;
  UniqueTable<mNode> mUnique_;

  ComputeTable<EdgePairKey, vEdge> addVTable_;
  ComputeTable<EdgePairKey, mEdge> addMTable_;
  ComputeTable<NodePairKey, vEdge> multMVTable_;
  ComputeTable<NodePairKey, mEdge> multMMTable_;
  ComputeTable<NodePairKey, mEdge> kronTable_;
  ComputeTable<NodeKey, mEdge> conjTable_;
  ComputeTable<NodePairKey, ComplexValue> innerTable_;
  ComputeTable<NodeKey, double> normTable_;

  std::vector<mEdge> idTable_; // idTable_[k] = identity on k qubits
  std::size_t gcRuns_{0};
  double gcSeconds_{0.0};
  double gcMaxPauseSeconds_{0.0};
  obs::Context obs_;

  /// Publish the node population and unique-table fill into this thread's
  /// flight DD state cells; `beat` (the interrupt poll) also heartbeats, a
  /// GC does not (its own Gc event already does).
  void publishPoll(bool beat) noexcept;

  std::function<void()> interruptHook_;
  std::size_t interruptCounter_{0};

  void pollInterrupt() {
    // Every 1024 steps: fine-grained enough that even small workloads (a
    // few dozen gates on a product state) hit the hook, while the hook
    // body (typically one clock read or one relaxed flag load) stays
    // amortized to nothing.
    if ((++interruptCounter_ & 0x3FFU) != 0) {
      return;
    }
    if (obs_.flight != nullptr) {
      publishPoll(/*beat=*/true);
    }
    if (interruptHook_) {
      interruptHook_();
    }
  }
};

} // namespace qsimec::dd

#include "dd/package.hpp"

#include "util/deadline.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace qsimec::dd {

Package::Package(std::size_t nqubits) : nqubits_(nqubits) {
  if (nqubits == 0 || nqubits > 128) {
    throw std::invalid_argument("Package: qubit count must be in [1, 128]");
  }
  idTable_.reserve(nqubits + 1);
}

Package::~Package() {
  // cells only, as a GC's refresh: no heartbeat, no ring event
  if (obs_.flight != nullptr) {
    obs_.flight->pollBeat(-1, -1, /*beat=*/false);
  }
}

// --- node construction -------------------------------------------------------

vEdge Package::makeVNode(Var v, const std::array<vEdge, 2>& childrenIn) {
  pollInterrupt();
  std::array<vEdge, 2> children = childrenIn;
  for (auto& c : children) {
    if (c.w.exactlyZero()) {
      c = vZero();
    } else {
      assert(c.p->isTerminal() ? v == 0 : c.p->v == v - 1);
    }
  }
  if (children[0].isZeroTerminal() && children[1].isZeroTerminal()) {
    return vZero();
  }

  // Pick the normalization child: largest magnitude, with ties (within
  // tolerance) broken towards the lowest index so that the choice is stable
  // under floating-point noise — crucial for canonicity of diagonal gates
  // whose entries all have magnitude one.
  const double m0 = children[0].w.mag2();
  const double m1 = children[1].w.mag2();
  const double maxMag = std::max(m0, m1);
  // only a non-zero child can normalize: when every weight is within
  // TOLERANCE of zero, a zero child would pass the tie test too
  const std::size_t arg =
      (!children[0].w.exactlyZero() && m0 >= maxMag - TOLERANCE) ? 0 : 1;
  const ComplexValue norm = children[arg].w.value();

  std::array<vEdge, 2> normalized;
  for (std::size_t i = 0; i < 2; ++i) {
    if (i == arg) {
      normalized[i] = {children[i].p, cn_.one()};
    } else if (children[i].w.exactlyZero()) {
      normalized[i] = vZero();
    } else {
      normalized[i] = {children[i].p, cn_.lookup(children[i].w.value() / norm)};
      if (normalized[i].w.exactlyZero()) {
        normalized[i] = vZero();
      }
    }
  }

  vNode* cand = vUnique_.getNode();
  cand->v = v;
  cand->e = normalized;
  vNode* node = vUnique_.lookup(cand);
  // `norm` is the value of a canonical weight, which interns to itself
  // (real_table.hpp), so the weight is returned without a lookup
  return {node, children[arg].w};
}

mEdge Package::makeMNode(Var v, const std::array<mEdge, 4>& childrenIn) {
  pollInterrupt();
  std::array<mEdge, 4> children = childrenIn;
  bool allZero = true;
  for (auto& c : children) {
    if (c.w.exactlyZero()) {
      c = mZero();
    } else {
      assert(c.p->isTerminal() ? v == 0 : c.p->v == v - 1);
      allZero = false;
    }
  }
  if (allZero) {
    return mZero();
  }

  // Tolerance-aware argmax over the non-zero children, preferring the
  // lowest index (see makeVNode).
  double maxMag = -1.0;
  for (std::size_t i = 0; i < 4; ++i) {
    maxMag = std::max(maxMag, children[i].w.mag2());
  }
  std::size_t arg = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (!children[i].w.exactlyZero() &&
        children[i].w.mag2() >= maxMag - TOLERANCE) {
      arg = i;
      break;
    }
  }
  const ComplexValue norm = children[arg].w.value();

  std::array<mEdge, 4> normalized;
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == arg) {
      normalized[i] = {children[i].p, cn_.one()};
    } else if (children[i].w.exactlyZero()) {
      normalized[i] = mZero();
    } else {
      normalized[i] = {children[i].p, cn_.lookup(children[i].w.value() / norm)};
      if (normalized[i].w.exactlyZero()) {
        normalized[i] = mZero();
      }
    }
  }

  mNode* cand = mUnique_.getNode();
  cand->v = v;
  cand->e = normalized;
  mNode* node = mUnique_.lookup(cand);
  return {node, children[arg].w}; // see makeVNode
}

mEdge Package::tensorIdentity(Var v, const mEdge& e) {
  pollInterrupt();
  if (e.w.exactlyZero()) {
    return mZero();
  }
  mNode* cand = mUnique_.getNode();
  cand->v = v;
  cand->e = {mEdge{e.p, cn_.one()}, mZero(), mZero(), mEdge{e.p, cn_.one()}};
  return {mUnique_.lookup(cand), e.w};
}

// --- vectors -----------------------------------------------------------------

vEdge Package::makeBasisState(std::uint64_t i) {
  if (nqubits_ < 64 && (i >> nqubits_) != 0) {
    throw std::invalid_argument("makeBasisState: index out of range");
  }
  vEdge e = vTerminalOne();
  for (std::size_t q = 0; q < nqubits_; ++q) {
    // qubits from 64 up are |0> (a shift by 64 or more is undefined)
    const bool bit = q < 64 && ((i >> q) & 1U) != 0U;
    if (bit) {
      e = makeVNode(static_cast<Var>(q), {vZero(), e});
    } else {
      e = makeVNode(static_cast<Var>(q), {e, vZero()});
    }
  }
  return e;
}

vEdge Package::makeProductState(
    const std::vector<std::pair<ComplexValue, ComplexValue>>& amplitudes) {
  if (amplitudes.size() != nqubits_) {
    throw std::invalid_argument(
        "makeProductState: one amplitude pair per qubit required");
  }
  vEdge e = vTerminalOne();
  for (std::size_t q = 0; q < nqubits_; ++q) {
    const auto& [a0, a1] = amplitudes[q];
    if (a0.approximatelyZero() && a1.approximatelyZero()) {
      throw std::invalid_argument("makeProductState: zero qubit state");
    }
    const vEdge child0 =
        a0.approximatelyZero() ? vZero() : vEdge{e.p, cn_.lookup(a0 * e.w.value())};
    const vEdge child1 =
        a1.approximatelyZero() ? vZero() : vEdge{e.p, cn_.lookup(a1 * e.w.value())};
    e = makeVNode(static_cast<Var>(q), {child0, child1});
  }
  return e;
}

ComplexValue Package::getAmplitude(const vEdge& x, std::uint64_t i) const {
  if (x.w.exactlyZero()) {
    return {};
  }
  ComplexValue amp = x.w.value();
  const vNode* p = x.p;
  while (!p->isTerminal()) {
    const std::size_t bit = (i >> p->v) & 1U;
    const vEdge& c = p->e[bit];
    if (c.w.exactlyZero()) {
      return {};
    }
    amp *= c.w.value();
    p = c.p;
  }
  return amp;
}

std::vector<ComplexValue> Package::getVector(const vEdge& x) const {
  if (nqubits_ > 28) {
    throw std::invalid_argument("getVector: dense export limited to 28 qubits");
  }
  const std::uint64_t dim = 1ULL << nqubits_;
  std::vector<ComplexValue> vec(dim);
  for (std::uint64_t i = 0; i < dim; ++i) {
    vec[i] = getAmplitude(x, i);
  }
  return vec;
}

ComplexValue Package::innerProduct(const vEdge& x, const vEdge& y) {
  if (x.w.exactlyZero() || y.w.exactlyZero()) {
    return {};
  }
  struct Rec {
    Package& pkg;
    ComplexValue operator()(vNode* a, vNode* b) {
      if (a->isTerminal()) {
        return ComplexValue{1, 0};
      }
      const NodePairKey key{a->id, b->id};
      if (const ComplexValue* cached = pkg.innerTable_.lookup(key)) {
        return *cached;
      }
      ComplexValue sum{};
      for (std::size_t i = 0; i < 2; ++i) {
        const vEdge& ca = a->e[i];
        const vEdge& cb = b->e[i];
        if (ca.w.exactlyZero() || cb.w.exactlyZero()) {
          continue;
        }
        sum += ca.w.value().conj() * cb.w.value() * (*this)(ca.p, cb.p);
      }
      pkg.innerTable_.insert(key, sum);
      return sum;
    }
  } rec{*this};
  assert(x.p->v == y.p->v);
  return x.w.value().conj() * y.w.value() * rec(x.p, y.p);
}

double Package::fidelity(const vEdge& x, const vEdge& y) {
  return innerProduct(x, y).mag2();
}

double Package::subtreeNorm2(vNode* p) {
  if (p->isTerminal()) {
    return 1.0;
  }
  const NodeKey key{p->id};
  if (const double* cached = normTable_.lookup(key)) {
    return *cached;
  }
  double n = 0.0;
  for (const vEdge& child : p->e) {
    if (!child.w.exactlyZero()) {
      n += child.w.mag2() * subtreeNorm2(child.p);
    }
  }
  normTable_.insert(key, n);
  return n;
}

double Package::probabilityOfOne(const vEdge& x, Var q) {
  if (q < 0 || static_cast<std::size_t>(q) >= nqubits_ ||
      x.w.exactlyZero()) {
    throw std::invalid_argument("probabilityOfOne: invalid qubit or state");
  }
  // mass1(p): squared-amplitude mass with bit q = 1 inside the subtree,
  // assuming unit top weight (memoized per call — it depends on q)
  std::unordered_map<const vNode*, double> memo;
  const std::function<double(vNode*)> mass1 = [&](vNode* p) -> double {
    if (p->isTerminal()) {
      return 0.0; // below q never happens: recursion stops at level q
    }
    if (const auto it = memo.find(p); it != memo.end()) {
      return it->second;
    }
    double m = 0.0;
    if (p->v == q) {
      const vEdge& one = p->e[1];
      if (!one.w.exactlyZero()) {
        m = one.w.mag2() * subtreeNorm2(one.p);
      }
    } else {
      for (const vEdge& child : p->e) {
        if (!child.w.exactlyZero()) {
          m += child.w.mag2() * mass1(child.p);
        }
      }
    }
    memo.emplace(p, m);
    return m;
  };
  const double total = subtreeNorm2(x.p);
  return mass1(x.p) / total;
}

std::uint64_t Package::sampleOutcomeImpl(const vEdge& x,
                                         const std::function<double()>& next01) {
  if (x.w.exactlyZero()) {
    throw std::invalid_argument("sampleOutcome: zero state");
  }
  std::uint64_t outcome = 0;
  const vNode* p = x.p;
  while (!p->isTerminal()) {
    const vEdge& c0 = p->e[0];
    const vEdge& c1 = p->e[1];
    const double m0 = c0.w.exactlyZero()
                          ? 0.0
                          : c0.w.mag2() * subtreeNorm2(c0.p);
    const double m1 = c1.w.exactlyZero()
                          ? 0.0
                          : c1.w.mag2() * subtreeNorm2(c1.p);
    const bool bit = next01() * (m0 + m1) >= m0;
    if (bit) {
      outcome |= 1ULL << p->v;
      p = c1.p;
    } else {
      p = c0.p;
    }
  }
  return outcome;
}

vEdge Package::add(const vEdge& x, const vEdge& y) {
  if (x.w.exactlyZero()) {
    return y;
  }
  if (y.w.exactlyZero()) {
    return x;
  }
  return addImpl(x, y);
}

vEdge Package::addImpl(const vEdge& xIn, const vEdge& yIn) {
  pollInterrupt();
  vEdge x = xIn;
  vEdge y = yIn;
  if (x.p == y.p) {
    const ComplexValue s = x.w.value() + y.w.value();
    const Complex w = cn_.lookup(s);
    if (w.exactlyZero()) {
      return vZero();
    }
    return {x.p, w};
  }
  if (y.p->id < x.p->id) {
    std::swap(x, y); // addition commutes: canonical (creation-order) operands
  }

  // Factor the left weight out of the cache key: x.w (X + (y.w/x.w) Y).
  // Without this, recursing into phase-rich diagrams produces a distinct
  // weight pair on every path and the cache never hits (exponential adds).
  const Complex ratio = cn_.lookup(y.w.value() / x.w.value());
  if (ratio.exactlyZero()) {
    return x; // y is negligible relative to x
  }
  const EdgePairKey key{x.p->id, 0, 0, y.p->id, ratio.r->id, ratio.i->id};
  if (const vEdge* cached = addVTable_.lookup(key)) {
    if (cached->w.exactlyZero()) {
      return vZero();
    }
    const Complex w = mulWeights(cached->w, x.w);
    return w.exactlyZero() ? vZero() : vEdge{cached->p, w};
  }

  assert(!x.p->isTerminal() && !y.p->isTerminal() && x.p->v == y.p->v);
  const Var v = x.p->v;
  std::array<vEdge, 2> children;
  for (std::size_t i = 0; i < 2; ++i) {
    const vEdge& cx = x.p->e[i];
    vEdge cy = y.p->e[i];
    if (!cy.w.exactlyZero()) {
      cy.w = mulWeights(cy.w, ratio);
    }
    children[i] = add(cx, cy);
  }
  const vEdge result = makeVNode(v, children);
  addVTable_.insert(key, result);
  if (result.w.exactlyZero()) {
    return vZero();
  }
  const Complex w = mulWeights(result.w, x.w);
  return w.exactlyZero() ? vZero() : vEdge{result.p, w};
}

Complex Package::mulWeights(const Complex& a, const Complex& b) {
  if (a.exactlyOne()) {
    return b;
  }
  if (b.exactlyOne()) {
    return a;
  }
  return cn_.lookup(a.value() * b.value());
}

Complex Package::mulWeights(const Complex& a, const Complex& b,
                            const Complex& c) {
  if (a.exactlyOne()) {
    return mulWeights(b, c);
  }
  if (b.exactlyOne()) {
    return mulWeights(a, c);
  }
  if (c.exactlyOne()) {
    return mulWeights(a, b);
  }
  return cn_.lookup(a.value() * b.value() * c.value());
}

vEdge Package::multiply(const mEdge& m, const vEdge& v) {
  if (m.w.exactlyZero() || v.w.exactlyZero()) {
    return vZero();
  }
  assert((m.p->isTerminal() && v.p->isTerminal()) ||
         (!m.p->isTerminal() && !v.p->isTerminal() && m.p->v == v.p->v));
  const vEdge r = multiplyImpl(m.p, v.p);
  if (r.w.exactlyZero()) {
    return vZero();
  }
  const Complex w = mulWeights(r.w, m.w, v.w);
  if (w.exactlyZero()) {
    return vZero();
  }
  return {r.p, w};
}

vEdge Package::multiplyImpl(mNode* x, vNode* y) {
  pollInterrupt();
  if (x->isTerminal()) {
    return vTerminalOne();
  }
  const NodePairKey key{x->id, y->id};
  if (const vEdge* cached = multMVTable_.lookup(key)) {
    return *cached;
  }
  assert(!y->isTerminal() && x->v == y->v);
  const Var v = x->v;
  std::array<vEdge, 2> children;
  for (std::size_t r = 0; r < 2; ++r) {
    const vEdge p0 = multiply(x->e[2 * r + 0], y->e[0]);
    const vEdge p1 = multiply(x->e[2 * r + 1], y->e[1]);
    children[r] = add(p0, p1);
  }
  const vEdge result = makeVNode(v, children);
  multMVTable_.insert(key, result);
  return result;
}

// --- matrices ----------------------------------------------------------------

mEdge Package::makeIdent(std::size_t nq) {
  if (nq > nqubits_) {
    throw std::invalid_argument("makeIdent: too many qubits");
  }
  if (nq < idTable_.size()) {
    return idTable_[nq];
  }
  if (idTable_.empty()) {
    idTable_.push_back(mTerminalOne());
  }
  while (idTable_.size() <= nq) {
    const mEdge below = idTable_.back();
    const Var v = static_cast<Var>(idTable_.size() - 1);
    mEdge e = tensorIdentity(v, below);
    incRef(e); // identities are cached for the package lifetime
    idTable_.push_back(e);
  }
  return idTable_[nq];
}

mEdge Package::makeGateDD(const GateMatrix& mat, Var target,
                          const std::vector<Control>& controlsIn) {
  if (target < 0 || static_cast<std::size_t>(target) >= nqubits_) {
    throw std::invalid_argument("makeGateDD: target out of range");
  }
  // The IR keeps controls sorted by qubit, so only an unsorted list (the
  // middle CNOT of a controlled SWAP) pays for a sorted copy.
  std::vector<Control> sortedCopy;
  if (!std::is_sorted(controlsIn.begin(), controlsIn.end())) {
    sortedCopy = controlsIn;
    std::sort(sortedCopy.begin(), sortedCopy.end());
  }
  const std::vector<Control>& controls =
      sortedCopy.empty() ? controlsIn : sortedCopy;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    const Control& c = controls[i];
    if (c.qubit < 0 || static_cast<std::size_t>(c.qubit) >= nqubits_ ||
        c.qubit == target) {
      throw std::invalid_argument("makeGateDD: invalid control");
    }
    if (i > 0 && controls[i - 1].qubit == c.qubit) {
      throw std::invalid_argument("makeGateDD: duplicate control");
    }
  }

  std::array<mEdge, 4> em;
  for (std::size_t i = 0; i < 4; ++i) {
    const Complex w = cn_.lookup(mat[i]);
    em[i] = w.exactlyZero() ? mZero() : mEdge{mNode::terminal(), w};
  }

  // Levels below the target build the four blocks of the target's node.
  // Blocks whose step has the same input share its result, so a level costs
  // one node construction per distinct input, not four.
  auto ctrl = controls.begin();
  for (Var z = 0; z < target; ++z) {
    const std::array<mEdge, 4> in = em;
    if (ctrl != controls.end() && ctrl->qubit == z) {
      const mEdge identBelow = makeIdent(static_cast<std::size_t>(z));
      for (std::size_t i = 0; i < 4; ++i) {
        // For the target-diagonal blocks the control-failure branch is the
        // identity on everything processed so far; for off-diagonal blocks
        // it contributes nothing, so a zero off-diagonal block stays zero.
        const bool diag = (i == 0 || i == 3);
        if (i >= 2 && in[i] == in[3 - i]) { // partner: 3 -> 0, 2 -> 1
          em[i] = em[3 - i];
          continue;
        }
        if (!diag && in[i].w.exactlyZero()) {
          em[i] = mZero();
          continue;
        }
        const mEdge failCase = diag ? identBelow : mZero();
        em[i] = ctrl->positive
                    ? makeMNode(z, {failCase, mZero(), mZero(), in[i]})
                    : makeMNode(z, {in[i], mZero(), mZero(), failCase});
      }
      ++ctrl;
    } else {
      // I ⊗ block depends on the block's node only; its weight rides along
      for (std::size_t i = 0; i < 4; ++i) {
        if (in[i].w.exactlyZero()) {
          em[i] = mZero();
          continue;
        }
        std::size_t j = 0;
        while (j < i && (in[j].w.exactlyZero() || in[j].p != in[i].p)) {
          ++j;
        }
        em[i] = j < i ? mEdge{em[j].p, in[i].w} : tensorIdentity(z, in[i]);
      }
    }
  }

  mEdge e = makeMNode(target, em);

  // levels above the target
  for (Var z = target + 1; z < static_cast<Var>(nqubits_); ++z) {
    if (ctrl != controls.end() && ctrl->qubit == z) {
      const mEdge identBelow = makeIdent(static_cast<std::size_t>(z));
      if (ctrl->positive) {
        e = makeMNode(z, {identBelow, mZero(), mZero(), e});
      } else {
        e = makeMNode(z, {e, mZero(), mZero(), identBelow});
      }
      ++ctrl;
    } else {
      e = tensorIdentity(z, e);
    }
  }
  return e;
}

mEdge Package::makeSwapDD(Var q0, Var q1) {
  if (q0 == q1) {
    return makeIdent();
  }
  const mEdge cx01 = makeGateDD(Xmat, q1, {Control{q0, true}});
  const mEdge cx10 = makeGateDD(Xmat, q0, {Control{q1, true}});
  return multiply(cx01, multiply(cx10, cx01));
}

mEdge Package::add(const mEdge& x, const mEdge& y) {
  if (x.w.exactlyZero()) {
    return y;
  }
  if (y.w.exactlyZero()) {
    return x;
  }
  return addImpl(x, y);
}

mEdge Package::addImpl(const mEdge& xIn, const mEdge& yIn) {
  pollInterrupt();
  mEdge x = xIn;
  mEdge y = yIn;
  if (x.p == y.p) {
    const ComplexValue s = x.w.value() + y.w.value();
    const Complex w = cn_.lookup(s);
    if (w.exactlyZero()) {
      return mZero();
    }
    return {x.p, w};
  }
  if (y.p->id < x.p->id) {
    std::swap(x, y);
  }

  // weight-factored cache key; see the vector overload for the rationale
  const Complex ratio = cn_.lookup(y.w.value() / x.w.value());
  if (ratio.exactlyZero()) {
    return x;
  }
  const EdgePairKey key{x.p->id, 0, 0, y.p->id, ratio.r->id, ratio.i->id};
  if (const mEdge* cached = addMTable_.lookup(key)) {
    if (cached->w.exactlyZero()) {
      return mZero();
    }
    const Complex w = mulWeights(cached->w, x.w);
    return w.exactlyZero() ? mZero() : mEdge{cached->p, w};
  }

  assert(!x.p->isTerminal() && !y.p->isTerminal() && x.p->v == y.p->v);
  const Var v = x.p->v;
  std::array<mEdge, 4> children;
  for (std::size_t i = 0; i < 4; ++i) {
    const mEdge& cx = x.p->e[i];
    mEdge cy = y.p->e[i];
    if (!cy.w.exactlyZero()) {
      cy.w = mulWeights(cy.w, ratio);
    }
    children[i] = add(cx, cy);
  }
  const mEdge result = makeMNode(v, children);
  addMTable_.insert(key, result);
  if (result.w.exactlyZero()) {
    return mZero();
  }
  const Complex w = mulWeights(result.w, x.w);
  return w.exactlyZero() ? mZero() : mEdge{result.p, w};
}

mEdge Package::multiply(const mEdge& x, const mEdge& y) {
  if (x.w.exactlyZero() || y.w.exactlyZero()) {
    return mZero();
  }
  assert((x.p->isTerminal() && y.p->isTerminal()) ||
         (!x.p->isTerminal() && !y.p->isTerminal() && x.p->v == y.p->v));
  const mEdge r = multiplyImpl(x.p, y.p);
  if (r.w.exactlyZero()) {
    return mZero();
  }
  const Complex w = mulWeights(r.w, x.w, y.w);
  if (w.exactlyZero()) {
    return mZero();
  }
  return {r.p, w};
}

mEdge Package::multiplyImpl(mNode* x, mNode* y) {
  pollInterrupt();
  if (x->isTerminal()) {
    return mTerminalOne();
  }
  const NodePairKey key{x->id, y->id};
  if (const mEdge* cached = multMMTable_.lookup(key)) {
    return *cached;
  }
  assert(!y->isTerminal() && x->v == y->v);
  const Var v = x->v;
  std::array<mEdge, 4> children;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      const mEdge p0 = multiply(x->e[2 * r + 0], y->e[0 + c]);
      const mEdge p1 = multiply(x->e[2 * r + 1], y->e[2 + c]);
      children[2 * r + c] = add(p0, p1);
    }
  }
  const mEdge result = makeMNode(v, children);
  multMMTable_.insert(key, result);
  return result;
}

mEdge Package::kronecker(const mEdge& x, const mEdge& y) {
  if (x.w.exactlyZero() || y.w.exactlyZero()) {
    return mZero();
  }
  struct Rec {
    Package& pkg;
    mEdge operator()(mNode* a, mNode* b) {
      if (a->isTerminal()) {
        return {b, pkg.cn_.one()};
      }
      const NodePairKey key{a->id, b->id};
      if (const mEdge* cached = pkg.kronTable_.lookup(key)) {
        return *cached;
      }
      const std::size_t shift = b->isTerminal() ? 0 : b->v + 1U;
      std::array<mEdge, 4> children;
      for (std::size_t i = 0; i < 4; ++i) {
        const mEdge& ca = a->e[i];
        if (ca.w.exactlyZero()) {
          children[i] = pkg.mZero();
          continue;
        }
        const mEdge sub = (*this)(ca.p, b);
        children[i] = {sub.p, pkg.mulWeights(sub.w, ca.w)};
        if (children[i].w.exactlyZero()) {
          children[i] = pkg.mZero();
        }
      }
      const mEdge result =
          pkg.makeMNode(static_cast<Var>(a->v + shift), children);
      pkg.kronTable_.insert(key, result);
      return result;
    }
  } rec{*this};
  const mEdge r = rec(x.p, y.p);
  const Complex w = mulWeights(r.w, x.w, y.w);
  if (w.exactlyZero()) {
    return mZero();
  }
  return {r.p, w};
}

mEdge Package::conjugateTranspose(const mEdge& x) {
  if (x.w.exactlyZero()) {
    return mZero();
  }
  struct Rec {
    Package& pkg;
    mEdge operator()(mNode* p) {
      if (p->isTerminal()) {
        return {p, pkg.cn_.one()};
      }
      const NodeKey key{p->id};
      if (const mEdge* cached = pkg.conjTable_.lookup(key)) {
        return *cached;
      }
      std::array<mEdge, 4> children;
      for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 2; ++c) {
          const mEdge& src = p->e[2 * c + r]; // transpose
          if (src.w.exactlyZero()) {
            children[2 * r + c] = pkg.mZero();
            continue;
          }
          const mEdge sub = (*this)(src.p);
          children[2 * r + c] = {
              sub.p,
              pkg.cn_.lookup(sub.w.value() * src.w.value().conj())};
        }
      }
      const mEdge result = pkg.makeMNode(p->v, children);
      pkg.conjTable_.insert(key, result);
      return result;
    }
  } rec{*this};
  const mEdge r = rec(x.p);
  const Complex w = cn_.lookup(r.w.value() * x.w.value().conj());
  if (w.exactlyZero()) {
    return mZero();
  }
  return {r.p, w};
}

ComplexValue Package::getEntry(const mEdge& x, std::uint64_t r,
                               std::uint64_t c) const {
  if (x.w.exactlyZero()) {
    return {};
  }
  ComplexValue val = x.w.value();
  const mNode* p = x.p;
  while (!p->isTerminal()) {
    const std::size_t rb = (r >> p->v) & 1U;
    const std::size_t cb = (c >> p->v) & 1U;
    const mEdge& child = p->e[2 * rb + cb];
    if (child.w.exactlyZero()) {
      return {};
    }
    val *= child.w.value();
    p = child.p;
  }
  return val;
}

std::vector<std::vector<ComplexValue>> Package::getMatrix(const mEdge& x) const {
  if (nqubits_ > 14) {
    throw std::invalid_argument("getMatrix: dense export limited to 14 qubits");
  }
  const std::uint64_t dim = 1ULL << nqubits_;
  std::vector<std::vector<ComplexValue>> mat(dim,
                                             std::vector<ComplexValue>(dim));
  for (std::uint64_t r = 0; r < dim; ++r) {
    for (std::uint64_t c = 0; c < dim; ++c) {
      mat[r][c] = getEntry(x, r, c);
    }
  }
  return mat;
}

// --- GC & stats ---------------------------------------------------------------

void Package::clearComputeTables() noexcept {
  addVTable_.clear();
  addMTable_.clear();
  multMVTable_.clear();
  multMMTable_.clear();
  kronTable_.clear();
  conjTable_.clear();
  innerTable_.clear();
  normTable_.clear();
}

void Package::garbageCollect(bool force) {
  const bool needed = force || vUnique_.possiblyNeedsCollection() ||
                      mUnique_.possiblyNeedsCollection() ||
                      cn_.reals().possiblyNeedsCollection();
  if (!needed) {
    return;
  }
  obs::ScopedSpan span(obs_, "dd.gc", "dd");
  const util::Stopwatch watch;
  clearComputeTables();
  const std::size_t vCollected = vUnique_.garbageCollect();
  const std::size_t mCollected = mUnique_.garbageCollect();
  const std::size_t realsCollected = cn_.garbageCollect();
  const double pause = watch.seconds();
  gcSeconds_ += pause;
  gcMaxPauseSeconds_ = std::max(gcMaxPauseSeconds_, pause);
  ++gcRuns_;
  span.arg("v_collected", static_cast<std::uint64_t>(vCollected));
  span.arg("m_collected", static_cast<std::uint64_t>(mCollected));
  span.arg("reals_collected", static_cast<std::uint64_t>(realsCollected));
  // a JournalEvent rather than obs_.log, which would also mirror the line
  // into the flight ring: the Gc event below is the ring's record of it
  obs::JournalEvent(obs_, obs::JournalLevel::Debug, "dd.gc")
      .num("pause_seconds", pause)
      .num("v_collected", static_cast<std::uint64_t>(vCollected))
      .num("m_collected", static_cast<std::uint64_t>(mCollected))
      .num("reals_collected", static_cast<std::uint64_t>(realsCollected));
  if (obs_.flight != nullptr) {
    publishPoll(/*beat=*/false); // node drops are most visible after a GC
    obs_.flight->record(obs::FlightEventKind::Gc, "dd.gc",
                        static_cast<std::int64_t>(vCollected + mCollected),
                        static_cast<std::int64_t>(pause * 1e6));
  }
}

void Package::publishPoll(bool beat) noexcept {
  // fill as parts-per-million: the flight recorder's DD state cells are
  // integers so the async-signal-safe dump path never formats doubles
  const auto live =
      static_cast<std::int64_t>(vUnique_.liveNodes() + mUnique_.liveNodes());
  const auto allocated =
      static_cast<std::int64_t>(vUnique_.allocated() + mUnique_.allocated());
  const std::int64_t fillPpm = allocated > 0 ? live * 1000000 / allocated : -1;
  obs_.flight->pollBeat(live, fillPpm, beat);
}

void Package::resetComputationState() {
  // Release the identities cached "for the package lifetime" so the forced
  // collection below reclaims them (and their weights) like everything else.
  for (std::size_t nq = 0; nq < idTable_.size(); ++nq) {
    if (nq > 0) { // entry 0 is the bare terminal, never incRef'd
      decRef(idTable_[nq]);
    }
  }
  idTable_.clear();
  garbageCollect(/*force=*/true);
  // The thresholds double monotonically; left alone, *when* a threshold
  // collection fires mid-run would depend on prior runs, and with it which
  // transient reals are available as tolerance-snapping targets.
  vUnique_.resetGcThreshold();
  mUnique_.resetGcThreshold();
  cn_.reals().resetGcThreshold();
  // With the tables emptied by the forced collection, restart the serial-id
  // sequences too: runs separated by this barrier then replay identical ids,
  // identical table collisions, and identical GC points — the foundation of
  // the cross-thread byte-determinism contract (a run's counters must not
  // depend on which worker's package executed the runs before it).
  vUnique_.resetIdsIfEmpty();
  mUnique_.resetIdsIfEmpty();
  cn_.reals().resetIdsIfEmpty();
  interruptCounter_ = 0;
}

namespace {
template <class EdgeT> std::size_t sizeImpl(const EdgeT& e) {
  std::unordered_set<const void*> visited;
  std::vector<decltype(e.p)> stack{e.p};
  while (!stack.empty()) {
    auto* p = stack.back();
    stack.pop_back();
    if (p->isTerminal() || !visited.insert(p).second) {
      continue;
    }
    for (const auto& child : p->e) {
      if (!child.w.exactlyZero()) {
        stack.push_back(child.p);
      }
    }
  }
  return visited.size();
}
} // namespace

std::size_t Package::size(const vEdge& e) { return sizeImpl(e); }
std::size_t Package::size(const mEdge& e) { return sizeImpl(e); }

PackageStats Package::stats() const noexcept {
  PackageStats s;
  s.vNodesLive = vUnique_.liveNodes();
  s.vNodesAllocated = vUnique_.allocated();
  s.vNodesPeakLive = vUnique_.peakLiveNodes();
  s.mNodesLive = mUnique_.liveNodes();
  s.mNodesAllocated = mUnique_.allocated();
  s.mNodesPeakLive = mUnique_.peakLiveNodes();
  s.realsLive = cn_.liveReals();
  s.gcRuns = gcRuns_;
  s.gcSeconds = gcSeconds_;
  s.gcMaxPauseSeconds = gcMaxPauseSeconds_;
  s.vUnique = {vUnique_.lookups(), vUnique_.hits()};
  s.mUnique = {mUnique_.lookups(), mUnique_.hits()};
  s.addV = {addVTable_.lookups(), addVTable_.hits()};
  s.addM = {addMTable_.lookups(), addMTable_.hits()};
  s.multMV = {multMVTable_.lookups(), multMVTable_.hits()};
  s.multMM = {multMMTable_.lookups(), multMMTable_.hits()};
  s.kron = {kronTable_.lookups(), kronTable_.hits()};
  s.conj = {conjTable_.lookups(), conjTable_.hits()};
  s.inner = {innerTable_.lookups(), innerTable_.hits()};
  return s;
}

} // namespace qsimec::dd

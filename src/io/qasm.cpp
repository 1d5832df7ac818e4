#include "io/qasm.hpp"

#include "io/scanner.hpp"

#include <array>
#include <fstream>
#include <map>
#include <numbers>
#include <optional>
#include <span>
#include <sstream>

namespace qsimec::io {

namespace {

using Cursor = detail::Scanner<QasmParseError>;

// ---------------------------------------------------------------------------
// Expression parser: + - * / ( ) pi and numbers, standard precedence.
// ---------------------------------------------------------------------------

/// The index of the last `name` in `names`: a gate definition that repeats
/// a parameter or qubit name binds its last occurrence.
std::optional<std::size_t> lastIndexOf(std::span<const std::string_view> names,
                                       std::string_view name) {
  for (std::size_t i = names.size(); i-- > 0;) {
    if (names[i] == name) {
      return i;
    }
  }
  return std::nullopt;
}

/// The parameters in scope inside a gate body: names[i] has values[i].
struct Symbols {
  std::span<const std::string_view> names;
  std::span<const double> values;
};

double parseExpression(Cursor& in, const Symbols* symbols = nullptr);

double parsePrimary(Cursor& in, const Symbols* symbols) {
  const char c = in.peek();
  if (c == '(') {
    in.expect('(');
    const double v = parseExpression(in, symbols);
    in.expect(')');
    return v;
  }
  if (c == '-') {
    in.expect('-');
    return -parsePrimary(in, symbols);
  }
  if (c == '+') {
    in.expect('+');
    return parsePrimary(in, symbols);
  }
  if (detail::isAlpha(c)) {
    const std::string_view id = in.identifier();
    if (id == "pi") {
      return std::numbers::pi;
    }
    if (symbols != nullptr) {
      if (const auto i = lastIndexOf(symbols->names, id)) {
        return symbols->values[*i];
      }
    }
    in.fail("unknown symbol in expression: " + std::string(id));
  }
  return in.real();
}

double parseTerm(Cursor& in, const Symbols* symbols) {
  double v = parsePrimary(in, symbols);
  while (true) {
    const char c = in.peek();
    if (c == '*') {
      in.expect('*');
      v *= parsePrimary(in, symbols);
    } else if (c == '/') {
      in.expect('/');
      v /= parsePrimary(in, symbols);
    } else {
      return v;
    }
  }
}

double parseExpression(Cursor& in, const Symbols* symbols) {
  double v = parseTerm(in, symbols);
  while (true) {
    const char c = in.peek();
    if (c == '+') {
      in.expect('+');
      v += parseTerm(in, symbols);
    } else if (c == '-') {
      in.expect('-');
      v -= parseTerm(in, symbols);
    } else {
      return v;
    }
  }
}

/// A parenthesised parameter list, if there is one, appended to `params`.
void parseParams(Cursor& in, const Symbols* symbols,
                 std::vector<double>& params) {
  if (in.peek() != '(') {
    return;
  }
  in.expect('(');
  if (in.peek() != ')') {
    params.push_back(parseExpression(in, symbols));
    while (in.consumeIf(',')) {
      params.push_back(parseExpression(in, symbols));
    }
  }
  in.expect(')');
}

// ---------------------------------------------------------------------------
// Parser proper
// ---------------------------------------------------------------------------
struct Register {
  std::size_t offset{};
  std::size_t size{};
};

struct GateSpec {
  ir::OpType type{};
  std::size_t nparams{};
  std::size_t ncontrols{}; // leading operands become positive controls
  bool twoTargets{false};  // swap-style
};

const std::map<std::string, GateSpec, std::less<>>& gateTable() {
  using ir::OpType;
  static const std::map<std::string, GateSpec, std::less<>> table = {
      {"id", {OpType::I, 0, 0}},       {"x", {OpType::X, 0, 0}},
      {"y", {OpType::Y, 0, 0}},        {"z", {OpType::Z, 0, 0}},
      {"h", {OpType::H, 0, 0}},        {"s", {OpType::S, 0, 0}},
      {"sdg", {OpType::Sdg, 0, 0}},    {"t", {OpType::T, 0, 0}},
      {"tdg", {OpType::Tdg, 0, 0}},    {"rx", {OpType::RX, 1, 0}},
      {"ry", {OpType::RY, 1, 0}},      {"rz", {OpType::RZ, 1, 0}},
      {"p", {OpType::Phase, 1, 0}},    {"u1", {OpType::Phase, 1, 0}},
      {"u2", {OpType::U2, 2, 0}},      {"u3", {OpType::U3, 3, 0}},
      {"u", {OpType::U3, 3, 0}},       {"cx", {OpType::X, 0, 1}},
      {"CX", {OpType::X, 0, 1}},       {"cy", {OpType::Y, 0, 1}},
      {"cz", {OpType::Z, 0, 1}},       {"ch", {OpType::H, 0, 1}},
      {"crz", {OpType::RZ, 1, 1}},     {"cp", {OpType::Phase, 1, 1}},
      {"cu1", {OpType::Phase, 1, 1}},  {"cu3", {OpType::U3, 3, 1}},
      {"ccx", {OpType::X, 0, 2}},      {"swap", {OpType::SWAP, 0, 0, true}},
      {"cswap", {OpType::SWAP, 0, 1, true}},
  };
  return table;
}

class Parser {
public:
  Parser(std::string_view text, ParseOptions options)
      : in_(text, 1), options_(options) {}

  ir::QuantumComputation parse(std::string name) {
    if (in_.identifier() != "OPENQASM") {
      in_.fail("file must start with OPENQASM");
    }
    (void)in_.real(); // version
    in_.expect(';');
    while (!in_.atEnd()) {
      parseStatement();
    }
    if (totalQubits_ == 0 && options_.validate) {
      // (lint mode admits it; the analyzer reports it as QA007)
      in_.fail("circuit declares zero qubits");
    }
    return detail::finishCircuit(totalQubits_, std::move(name),
                                 std::move(ops_));
  }

private:
  void parseStatement() {
    const std::string_view kw = in_.identifier();
    if (kw == "include") {
      in_.skipQuoted();
      in_.expect(';');
    } else if (kw == "qreg") {
      const std::string_view name = in_.identifier();
      in_.expect('[');
      const std::size_t size = in_.integer();
      in_.expect(']');
      in_.expect(';');
      if (size == 0) {
        in_.fail("empty quantum register");
      }
      in_.checkWidth(totalQubits_, size);
      if (!qregs_.emplace(name, Register{totalQubits_, size}).second) {
        in_.fail("duplicate register " + std::string(name));
      }
      totalQubits_ += size;
    } else if (kw == "creg") {
      (void)in_.identifier();
      in_.expect('[');
      (void)in_.integer();
      in_.expect(']');
      in_.expect(';');
    } else if (kw == "barrier" || kw == "measure") {
      skipOperands(in_);
    } else if (kw == "reset") {
      in_.fail("reset is not supported (unitary circuits only)");
    } else if (kw == "gate") {
      parseGateDefinition();
    } else if (kw == "opaque") {
      in_.fail("opaque gates have no functionality to check");
    } else {
      parseGate(kw);
    }
  }

  /// A user `gate`: its parameter and qubit names and its body, as views
  /// into the text; the body is scanned anew at each application.
  struct GateDefinition {
    std::vector<std::string_view> params;
    std::vector<std::string_view> qubits;
    std::string_view body;
  };

  void parseGateDefinition() {
    const std::string_view name = in_.identifier();
    if (gateTable().contains(name) || userGates_.contains(name)) {
      in_.fail("gate redefinition: " + std::string(name));
    }
    GateDefinition def;
    const auto names = [this](std::vector<std::string_view>& list) {
      do {
        list.push_back(in_.identifier());
      } while (in_.consumeIf(','));
    };
    if (in_.consumeIf('(') && !in_.consumeIf(')')) {
      names(def.params);
      in_.expect(')');
    }
    names(def.qubits);
    in_.expect('{');
    def.body = in_.block();
    userGates_.emplace(name, std::move(def));
  }

  /// Emit one (possibly user-defined) gate application on concrete qubits.
  void applyGateByName(std::string_view name, std::span<const double> params,
                       std::span<const ir::Qubit> qubits, std::size_t depth) {
    if (depth > 64) {
      in_.fail("gate definitions nested too deeply (recursion?)");
    }
    if (const auto user = userGates_.find(name); user != userGates_.end()) {
      applyUserGate(name, user->second, params, qubits, depth);
      return;
    }

    const auto it = gateTable().find(name);
    if (it == gateTable().end()) {
      in_.fail("unsupported gate: " + std::string(name));
    }
    const GateSpec& spec = it->second;
    if (params.size() != spec.nparams) {
      in_.fail("wrong parameter count for gate " + std::string(name));
    }
    const std::size_t nTargets = spec.twoTargets ? 2 : 1;
    if (qubits.size() != spec.ncontrols + nTargets) {
      in_.fail("wrong operand count for gate " + std::string(name));
    }
    std::array<double, 3> paramArray{};
    std::copy(params.begin(), params.end(), paramArray.begin());
    std::vector<ir::Control> controls;
    for (const ir::Qubit control : qubits.first(spec.ncontrols)) {
      controls.push_back(ir::Control{control, true});
    }
    const auto targets = qubits.subspan(spec.ncontrols);
    detail::emplaceOp(in_, options_, ops_, spec.type,
                      std::vector<ir::Qubit>(targets.begin(), targets.end()),
                      std::move(controls), paramArray);
  }

  /// Scan the body of `def` with its parameters and qubits bound. Syntax
  /// errors in the body carry lines counted from the body's start.
  void applyUserGate(std::string_view name, const GateDefinition& def,
                     std::span<const double> params,
                     std::span<const ir::Qubit> qubits, std::size_t depth) {
    if (params.size() != def.params.size() ||
        qubits.size() != def.qubits.size()) {
      in_.fail("wrong argument count for gate " + std::string(name));
    }
    const Symbols symbols{def.params, params};
    Cursor body(def.body, 1);
    std::vector<double> innerParams;
    std::vector<ir::Qubit> innerQubits;
    while (!body.atEnd()) {
      const std::string_view inner = body.identifier();
      if (inner == "barrier") {
        skipOperands(body);
        continue;
      }
      innerParams.clear();
      parseParams(body, &symbols, innerParams);
      innerQubits.clear();
      do {
        const std::string_view qname = body.identifier();
        const auto i = lastIndexOf(def.qubits, qname);
        if (!i) {
          in_.fail("unknown qubit " + std::string(qname) + " in gate " +
                   std::string(name));
        }
        innerQubits.push_back(qubits[*i]);
      } while (body.consumeIf(','));
      body.expect(';');
      applyGateByName(inner, innerParams, innerQubits, depth + 1);
    }
  }

  static void skipOperands(Cursor& in) {
    while (in.peek() != ';') {
      (void)in.get();
    }
    in.expect(';');
  }

  /// An operand: either reg[idx] (one qubit) or reg (the whole register).
  struct Operand {
    std::size_t offset{};
    std::size_t count{}; // 1 for indexed, register size for broadcast
  };

  Operand parseOperand() {
    const std::string_view reg = in_.identifier();
    const auto it = qregs_.find(reg);
    if (it == qregs_.end()) {
      in_.fail("unknown register " + std::string(reg));
    }
    if (in_.consumeIf('[')) {
      const std::size_t idx = in_.integer();
      in_.expect(']');
      if (idx >= it->second.size && options_.validate) {
        // (lint mode admits the index; the analyzer reports it as QA001)
        in_.fail("index out of range for register " + std::string(reg));
      }
      return Operand{it->second.offset + idx, 1};
    }
    return Operand{it->second.offset, it->second.size};
  }

  void parseGate(std::string_view name) {
    params_.clear();
    parseParams(in_, nullptr, params_);
    operands_.clear();
    operands_.push_back(parseOperand());
    while (in_.consumeIf(',')) {
      operands_.push_back(parseOperand());
    }
    in_.expect(';');

    // broadcasting: all multi-qubit operands must have the same size
    std::size_t broadcast = 1;
    for (const Operand& o : operands_) {
      if (o.count > 1) {
        if (broadcast > 1 && o.count != broadcast) {
          in_.fail("mismatched register sizes in broadcast");
        }
        broadcast = o.count;
      }
    }

    for (std::size_t b = 0; b < broadcast; ++b) {
      qubits_.clear();
      for (const Operand& o : operands_) {
        qubits_.push_back(
            static_cast<ir::Qubit>(o.count == 1 ? o.offset : o.offset + b));
      }
      applyGateByName(name, params_, qubits_, 0);
    }
  }

  Cursor in_;
  ParseOptions options_;
  std::map<std::string, Register, std::less<>> qregs_;
  std::map<std::string, GateDefinition, std::less<>> userGates_;
  std::size_t totalQubits_{0};
  std::vector<ir::StandardOperation> ops_;
  // per-statement buffers, reused
  std::vector<double> params_;
  std::vector<Operand> operands_;
  std::vector<ir::Qubit> qubits_;
};

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------
/// The qelib1 spelling of a gate type with no, one and two (positive)
/// controls, "" where qelib1 has none, and its parameter count.
struct Spelling {
  ir::OpType type;
  std::array<const char*, 3> names;
  std::size_t nparams;
};

constexpr Spelling kSpellings[] = {
    {ir::OpType::H, {"h", "ch", ""}, 0},
    {ir::OpType::X, {"x", "cx", "ccx"}, 0},
    {ir::OpType::Y, {"y", "cy", ""}, 0},
    {ir::OpType::Z, {"z", "cz", ""}, 0},
    {ir::OpType::S, {"s", "", ""}, 0},
    {ir::OpType::Sdg, {"sdg", "", ""}, 0},
    {ir::OpType::T, {"t", "", ""}, 0},
    {ir::OpType::Tdg, {"tdg", "", ""}, 0},
    {ir::OpType::RX, {"rx", "", ""}, 1},
    {ir::OpType::RY, {"ry", "", ""}, 1},
    {ir::OpType::RZ, {"rz", "crz", ""}, 1},
    {ir::OpType::Phase, {"u1", "cu1", ""}, 1},
    {ir::OpType::U2, {"u2", "", ""}, 2},
    {ir::OpType::U3, {"u3", "cu3", ""}, 3},
    {ir::OpType::SWAP, {"swap", "cswap", ""}, 0},
};

void writeOperation(const ir::StandardOperation& op, std::ostream& os) {
  using ir::OpType;
  const auto& controls = op.controls();
  for (const ir::Control& c : controls) {
    if (!c.positive) {
      throw std::domain_error(
          "OpenQASM 2.0 cannot express negative controls; decompose first");
    }
  }

  const auto q = [](ir::Qubit qubit) {
    return "q[" + std::to_string(qubit) + "]";
  };
  const auto operands = [&] {
    std::string s;
    for (const ir::Control& c : controls) {
      s += q(c.qubit) + ",";
    }
    for (const ir::Qubit t : op.targets()) {
      s += q(t) + ",";
    }
    s.pop_back();
    return s;
  };
  const auto paramList = [&op](std::size_t n) {
    std::ostringstream ss;
    ss.precision(17);
    ss << "(";
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) {
        ss << ",";
      }
      ss << op.param(i);
    }
    ss << ")";
    return ss.str();
  };

  if (controls.empty()) {
    // phase-equivalent spellings: V = e^{i pi/4} · sdg h sdg,
    // SY = e^{i pi/4} · ry(pi/2)
    switch (op.type()) {
    case OpType::V:
      os << "sdg " << q(op.target()) << ";\nh " << q(op.target())
         << ";\nsdg " << q(op.target()) << ";\n";
      return;
    case OpType::Vdg:
      os << "s " << q(op.target()) << ";\nh " << q(op.target()) << ";\ns "
         << q(op.target()) << ";\n";
      return;
    case OpType::SY:
      os << "ry(pi/2) " << q(op.target()) << ";\n";
      return;
    case OpType::SYdg:
      os << "ry(-pi/2) " << q(op.target()) << ";\n";
      return;
    default:
      break;
    }
  }
  if (op.type() == OpType::GPhase) {
    throw std::domain_error(
        "OpenQASM 2.0 cannot express a global phase; drop or decompose it");
  }
  std::string name = op.type() == OpType::I ? "id" : ""; // whatever controls
  std::string params;
  for (const Spelling& spelling : kSpellings) {
    if (spelling.type == op.type() && controls.size() < 3) {
      name = spelling.names[controls.size()];
      params = spelling.nparams > 0 ? paramList(spelling.nparams) : "";
    }
  }
  if (name.empty()) {
    throw std::domain_error(
        "operation not expressible in OpenQASM 2.0; decompose first");
  }
  os << name << params << " " << operands() << ";\n";
}

} // namespace

ir::QuantumComputation parseQasmString(const std::string& text,
                                       std::string name,
                                       ParseOptions options) {
  return Parser(text, options).parse(std::move(name));
}

ir::QuantumComputation parseQasmFile(const std::string& path,
                                     ParseOptions options) {
  const std::string text = detail::readFile(path);
  return Parser(text, options).parse(path);
}

void writeQasm(const ir::QuantumComputation& qc, std::ostream& os) {
  if (!qc.initialLayout().isIdentity() ||
      !qc.outputPermutation().isIdentity()) {
    throw std::domain_error(
        "OpenQASM 2.0 export requires trivial layouts; materialize the "
        "permutations as SWAP gates first");
  }
  os << "OPENQASM 2.0;\n"
     << "include \"qelib1.inc\";\n"
     << "qreg q[" << qc.qubits() << "];\n";
  for (const ir::StandardOperation& op : qc) {
    writeOperation(op, os);
  }
}

std::string toQasmString(const ir::QuantumComputation& qc) {
  std::ostringstream ss;
  writeQasm(qc, ss);
  return ss.str();
}

void writeQasmFile(const ir::QuantumComputation& qc, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open " + path);
  }
  writeQasm(qc, os);
}

} // namespace qsimec::io

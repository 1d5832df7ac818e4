#include "io/real.hpp"

#include "io/scanner.hpp"

#include <map>
#include <optional>
#include <sstream>

namespace qsimec::io {

namespace {

ir::QuantumComputation parseRealText(std::string_view text, std::string name,
                                     ParseOptions options) {
  detail::Scanner<RealParseError> in(text, 0); // counts the lines read
  std::optional<std::size_t> numvars;
  std::map<std::string_view, ir::Qubit> variableIndex;
  bool inBody = false;
  bool done = false;
  std::vector<ir::StandardOperation> ops;
  std::vector<std::string_view> tokens;
  std::vector<ir::Control> operands;

  std::string_view line;
  while (in.nextLine(line)) {
    tokens.clear();
    for (std::string_view word = detail::nextWord(line);
         !word.empty() && word.front() != '#'; // '#' starts a comment
         word = detail::nextWord(line)) {
      tokens.push_back(word);
    }
    if (tokens.empty()) {
      continue;
    }
    const std::string_view head = tokens.front();

    if (!inBody) {
      if (head == ".version" || head == ".inputs" || head == ".outputs" ||
          head == ".constants" || head == ".garbage" ||
          head == ".inputbus" || head == ".outputbus") {
        continue; // metadata we do not need for functionality
      }
      if (head == ".numvars") {
        if (tokens.size() != 2) {
          in.fail(".numvars expects one argument");
        }
        const auto n = detail::parseUnsigned(tokens[1]);
        if (!n) {
          in.fail(".numvars expects an unsigned integer, got " +
                  std::string(tokens[1]));
        }
        if (*n == 0) {
          in.fail(".numvars 0 declares no variables");
        }
        in.checkWidth(0, *n);
        numvars = *n;
        continue;
      }
      if (head == ".variables") {
        if (!numvars) {
          in.fail(".numvars must precede .variables");
        }
        if (tokens.size() != *numvars + 1) {
          in.fail(".variables count does not match .numvars");
        }
        // first listed variable = most-significant qubit
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          const auto qubit = static_cast<ir::Qubit>(*numvars - i);
          if (!variableIndex.emplace(tokens[i], qubit).second) {
            in.fail("duplicate variable " + std::string(tokens[i]));
          }
        }
        continue;
      }
      if (head == ".begin") {
        if (variableIndex.empty()) {
          in.fail(".begin before .variables");
        }
        inBody = true;
        continue;
      }
      in.fail("unexpected directive " + std::string(head));
    }

    if (head == ".end") {
      done = true;
      break;
    }

    // gate line: <kind><arity> operands...
    const auto gate = detail::parseGateHead(head, /*foldCase=*/false);
    if (!gate) {
      in.fail("unsupported gate " + std::string(head));
    }
    const std::size_t arity = gate->arity.value_or(tokens.size() - 1);
    if (tokens.size() != arity + 1) {
      in.fail("gate " + std::string(head) + " expects " +
              std::to_string(arity) + " operands");
    }
    // resolve operands; '-' prefix marks a negative control
    operands.clear();
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      std::string_view var = tokens[i];
      const bool positive = var.front() != '-';
      if (!positive) {
        var.remove_prefix(1);
      }
      const auto it = variableIndex.find(var);
      if (it == variableIndex.end()) {
        in.fail("unknown variable " + std::string(tokens[i]));
      }
      operands.push_back(ir::Control{it->second, positive});
    }
    detail::emplaceGate(in, options, ops, head, *gate, operands);
  }

  if (inBody && !done) {
    in.fail("missing .end");
  }
  if (!numvars) {
    in.fail("missing .numvars");
  }
  return detail::finishCircuit(*numvars, std::move(name), std::move(ops));
}

} // namespace

ir::QuantumComputation parseRealString(const std::string& text,
                                       std::string name,
                                       ParseOptions options) {
  return parseRealText(text, std::move(name), options);
}

ir::QuantumComputation parseRealFile(const std::string& path,
                                     ParseOptions options) {
  return parseRealText(readFile(path), path, options);
}

void writeReal(const ir::QuantumComputation& qc, std::ostream& os) {
  detail::requireTrivialLayouts(qc, ".real");
  const std::size_t n = qc.qubits();
  os << ".version 2.0\n.numvars " << n << "\n.variables";
  for (std::size_t i = 0; i < n; ++i) {
    os << " x" << (n - 1 - i); // first variable = MSB = qubit n-1
  }
  os << "\n.begin\n";
  for (const ir::StandardOperation& op : qc) {
    os << detail::writerGateHead(op, ".real");
    for (const ir::Control& c : op.controls()) {
      os << " " << (c.positive ? "" : "-") << "x" << c.qubit;
    }
    for (const ir::Qubit t : op.targets()) {
      os << " x" << t;
    }
    os << "\n";
  }
  os << ".end\n";
}

std::string toRealString(const ir::QuantumComputation& qc) {
  std::ostringstream ss;
  writeReal(qc, ss);
  return ss.str();
}

} // namespace qsimec::io

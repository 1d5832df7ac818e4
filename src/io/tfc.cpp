#include "io/tfc.hpp"

#include "io/scanner.hpp"

#include <map>
#include <sstream>

namespace qsimec::io {

namespace {

/// Strip a '#' comment, then split the line into a head word and its
/// comma-separated fields, each trimmed of " \t\r". An empty field
/// before or after the last comma appends one empty field, for the caller
/// to report.
std::string_view splitLine(std::string_view line,
                           std::vector<std::string_view>& fields) {
  line = line.substr(0, line.find('#'));
  const std::string_view head = detail::nextWord(line);
  fields.clear();
  const auto push = [&fields](std::string_view piece) {
    const std::size_t begin = piece.find_first_not_of(" \t\r");
    if (begin == std::string_view::npos) {
      return false;
    }
    const std::size_t end = piece.find_last_not_of(" \t\r");
    fields.push_back(piece.substr(begin, end - begin + 1));
    return true;
  };
  bool sawComma = false;
  bool danglingComma = false;
  for (std::size_t comma = line.find(','); comma != std::string_view::npos;
       comma = line.find(',')) {
    sawComma = true;
    danglingComma = !push(line.substr(0, comma));
    line.remove_prefix(comma + 1);
  }
  const bool pushed = push(line);
  if (sawComma && (danglingComma || !pushed)) {
    fields.emplace_back();
  }
  return head;
}

/// `word` equals the upper-case keyword `upper`, ignoring case.
bool equalsUpper(std::string_view word, std::string_view upper) {
  return std::equal(word.begin(), word.end(), upper.begin(), upper.end(),
                    [](char c, char u) {
                      return (c >= 'a' && c <= 'z' ? c - 'a' + 'A' : c) == u;
                    });
}

ir::QuantumComputation parseTfcText(std::string_view text, std::string name,
                                    ParseOptions options) {
  detail::Scanner<TfcParseError> in(text, 0); // counts the lines read
  std::vector<std::string_view> variables;
  std::map<std::string_view, ir::Qubit> variableIndex;
  std::size_t declaredInputs = 0;
  bool sawInputs = false;
  bool inBody = false;
  bool done = false;
  std::vector<ir::StandardOperation> ops;
  std::vector<std::string_view> fields;
  std::vector<ir::Control> operands;

  std::string_view line;
  while (in.nextLine(line)) {
    const std::string_view head = splitLine(line, fields);
    if (head.empty()) {
      continue;
    }

    if (!inBody) {
      if (head == ".v" || head == ".V") {
        if (!variables.empty()) {
          in.fail("duplicate .v directive");
        }
        if (fields.empty()) {
          in.fail(".v expects at least one variable");
        }
        in.checkWidth(0, fields.size());
        for (const std::string_view var : fields) {
          if (var.empty()) {
            in.fail("empty variable name in .v");
          }
          variables.push_back(var);
        }
        // first listed variable = most-significant qubit
        for (std::size_t i = 0; i < variables.size(); ++i) {
          const auto qubit = static_cast<ir::Qubit>(variables.size() - 1 - i);
          if (!variableIndex.emplace(variables[i], qubit).second) {
            in.fail("duplicate variable " + std::string(variables[i]));
          }
        }
        continue;
      }
      if (head == ".i" || head == ".o" || head == ".ol") {
        if (variables.empty()) {
          in.fail(std::string(head) + " before .v");
        }
        for (const std::string_view var : fields) {
          if (!variableIndex.contains(var)) {
            in.fail(std::string(head) + " names undeclared wire " +
                    std::string(var));
          }
        }
        if (head == ".i") {
          sawInputs = true;
          declaredInputs = fields.size();
        }
        continue;
      }
      if (head == ".c") {
        if (variables.empty()) {
          in.fail(".c before .v");
        }
        if (sawInputs && fields.size() > variables.size() - declaredInputs) {
          in.fail(".c lists more constants than non-input wires");
        }
        if (fields.size() > variables.size()) {
          in.fail(".c lists more constants than wires");
        }
        for (const std::string_view c : fields) {
          if (c != "0" && c != "1") {
            in.fail(".c constant must be 0 or 1, got '" + std::string(c) +
                    "'");
          }
        }
        continue;
      }
      if (equalsUpper(head, "BEGIN")) {
        if (variables.empty()) {
          in.fail("BEGIN before .v");
        }
        inBody = true;
        continue;
      }
      in.fail("unexpected directive " + std::string(head));
    }

    if (equalsUpper(head, "END")) {
      done = true;
      break;
    }

    // gate line: <kind><arity> operand,operand,...
    const auto gate = detail::parseGateHead(head, /*foldCase=*/true);
    if (!gate) {
      in.fail("unsupported gate " + std::string(head));
    }
    const std::size_t arity = gate->arity.value_or(fields.size());
    if (fields.size() != arity) {
      in.fail("gate " + std::string(head) + " expects " +
              std::to_string(arity) + " operands, got " +
              std::to_string(fields.size()));
    }
    // resolve operands; a trailing apostrophe marks a negative control
    operands.clear();
    for (const std::string_view raw : fields) {
      std::string_view var = raw;
      const bool positive = var.empty() || var.back() != '\'';
      if (!positive) {
        var.remove_suffix(1);
      }
      const auto it = variableIndex.find(var);
      if (it == variableIndex.end()) {
        in.fail("unknown variable '" + std::string(raw) + "'");
      }
      operands.push_back(ir::Control{it->second, positive});
    }
    detail::emplaceGate(in, options, ops, head, *gate, operands);
  }

  if (inBody && !done) {
    in.fail("missing END");
  }
  if (variables.empty()) {
    in.fail("missing .v");
  }
  return detail::finishCircuit(variables.size(), std::move(name),
                               std::move(ops));
}

} // namespace

ir::QuantumComputation parseTfcString(const std::string& text,
                                      std::string name, ParseOptions options) {
  return parseTfcText(text, std::move(name), options);
}

ir::QuantumComputation parseTfcFile(const std::string& path,
                                    ParseOptions options) {
  return parseTfcText(readFile(path), path, options);
}

void writeTfc(const ir::QuantumComputation& qc, std::ostream& os) {
  detail::requireTrivialLayouts(qc, ".tfc");
  const std::size_t n = qc.qubits();
  const auto wire = [](ir::Qubit q) {
    std::string name = "x";
    name += std::to_string(q);
    return name;
  };
  os << ".v ";
  for (std::size_t i = 0; i < n; ++i) {
    os << (i == 0 ? "" : ",") << wire(static_cast<ir::Qubit>(n - 1 - i));
  }
  os << "\nBEGIN\n";
  for (const ir::StandardOperation& op : qc) {
    os << detail::writerGateHead(op, ".tfc") << " ";
    bool first = true;
    for (const ir::Control& c : op.controls()) {
      os << (first ? "" : ",") << wire(c.qubit) << (c.positive ? "" : "'");
      first = false;
    }
    for (const ir::Qubit t : op.targets()) {
      os << (first ? "" : ",") << wire(t);
      first = false;
    }
    os << "\n";
  }
  os << "END\n";
}

std::string toTfcString(const ir::QuantumComputation& qc) {
  std::ostringstream ss;
  writeTfc(qc, ss);
  return ss.str();
}

} // namespace qsimec::io

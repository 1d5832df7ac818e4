#include "daemon/client.hpp"

#include "util/json_parse.hpp"

#include <stdexcept>
#include <utility>

namespace qsimec::daemon {

namespace {

/// Split response text into newline-terminated lines (no empties).
std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    if (end > start) {
      lines.push_back(text.substr(start, end - start));
    }
    start = end + 1;
  }
  return lines;
}

/// Interpret the first response line: the constant accepted line, or an
/// error line whose code/message are surfaced to the caller.
void applyAdmissionLine(const std::string& line, SubmitResult* result) {
  try {
    const util::JsonValue doc = util::parseJson(line);
    if (const util::JsonValue* accepted = doc.find("accepted");
        accepted != nullptr) {
      result->accepted = accepted->asBool();
    }
    if (const util::JsonValue* error = doc.find("error"); error != nullptr) {
      result->error = error->asString();
    }
    if (const util::JsonValue* message = doc.find("message");
        message != nullptr) {
      result->message = message->asString();
    }
  } catch (const util::JsonParseError& e) {
    throw std::runtime_error(std::string("malformed daemon response: ") +
                             e.what());
  }
}

std::string roundTrip(const std::string& socketPath, RequestOp op,
                      double timeoutSeconds) {
  const Socket connection = connectUnix(socketPath);
  RequestHeader header;
  header.op = op;
  writeAll(connection, toJsonLine(header) + "\n");
  shutdownWrite(connection);
  return readAll(connection, timeoutSeconds);
}

} // namespace

SubmitResult submitManifestText(const std::string& socketPath,
                                const std::string& manifestText,
                                const SubmitOptions& options) {
  const Socket connection = connectUnix(socketPath);
  RequestHeader header;
  header.op = RequestOp::Submit;
  header.client = options.client;
  header.priority = options.priority;
  header.redact = options.redact;
  std::string payload = toJsonLine(header) + "\n" + manifestText;
  if (!payload.empty() && payload.back() != '\n') {
    payload += '\n';
  }
  writeAll(connection, payload);
  shutdownWrite(connection); // end of request: the server may now answer

  SubmitResult result;
  if (!options.wait) {
    // admission is answered immediately (accepted or an explicit
    // rejection); the results are abandoned on purpose
    const std::string first = readLine(connection, options.timeoutSeconds);
    if (first.empty()) {
      throw std::runtime_error("daemon closed the connection without a reply");
    }
    applyAdmissionLine(first, &result);
    return result;
  }
  const std::string response = readAll(connection, options.timeoutSeconds);
  std::vector<std::string> lines = splitLines(response);
  if (lines.empty()) {
    throw std::runtime_error("daemon closed the connection without a reply");
  }
  // after the accepted line every line is a result line
  applyAdmissionLine(lines.front(), &result);
  lines.erase(lines.begin());
  result.lines = std::move(lines);
  return result;
}

std::string fetchStatus(const std::string& socketPath,
                        double timeoutSeconds) {
  return roundTrip(socketPath, RequestOp::Status, timeoutSeconds);
}

std::string fetchMetrics(const std::string& socketPath,
                         double timeoutSeconds) {
  return roundTrip(socketPath, RequestOp::Metrics, timeoutSeconds);
}

bool sendShutdown(const std::string& socketPath, double timeoutSeconds) {
  const std::string reply =
      roundTrip(socketPath, RequestOp::Shutdown, timeoutSeconds);
  try {
    const util::JsonValue doc = util::parseJson(splitLines(reply).at(0));
    return doc.at("ok").asBool();
  } catch (const std::exception&) {
    return false;
  }
}

int submitExitCode(const SubmitResult& result) {
  if (!result.accepted) {
    return 5;
  }
  for (const std::string& line : result.lines) {
    if (line.find("\"summary\":true") == std::string::npos) {
      continue;
    }
    try {
      const util::JsonValue doc = util::parseJson(line);
      if (doc.at("not_equivalent").asUint() > 0) {
        return 1;
      }
      if (doc.at("invalid").asUint() > 0) {
        return 4;
      }
      if (doc.at("inconclusive").asUint() > 0) {
        return 3;
      }
      return 0;
    } catch (const util::JsonParseError&) {
      return 5;
    }
  }
  // no summary seen: fine for fire-and-forget, undiagnosable otherwise
  return result.lines.empty() ? 0 : 5;
}

} // namespace qsimec::daemon

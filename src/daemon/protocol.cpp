#include "daemon/protocol.hpp"

#include "util/json.hpp"
#include "util/json_parse.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace qsimec::daemon {

namespace {

[[noreturn]] void failErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un makeAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path empty or longer than " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " bytes: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Block until the descriptor is readable; false on timeout.
bool waitReadable(int fd, double timeoutSeconds) {
  pollfd pfd{fd, POLLIN, 0};
  const int timeoutMs =
      timeoutSeconds <= 0.0
          ? -1
          : std::max(1, static_cast<int>(timeoutSeconds * 1000.0));
  while (true) {
    const int rc = ::poll(&pfd, 1, timeoutMs);
    if (rc > 0) {
      return true;
    }
    if (rc == 0) {
      return false;
    }
    if (errno != EINTR) {
      failErrno("poll");
    }
  }
}

} // namespace

std::string_view toString(RequestOp op) noexcept {
  switch (op) {
  case RequestOp::Submit:
    return "submit";
  case RequestOp::Status:
    return "status";
  case RequestOp::Metrics:
    return "metrics";
  case RequestOp::Ping:
    return "ping";
  case RequestOp::Shutdown:
    return "shutdown";
  }
  return "ping";
}

RequestHeader parseRequestHeader(std::string_view line) {
  util::JsonValue doc;
  try {
    doc = util::parseJson(line);
    if (!doc.isObject()) {
      throw util::JsonParseError("header is not a JSON object");
    }
    if (doc.at("schema").asString() != kProtocolSchema) {
      throw util::JsonParseError("unsupported schema (want qsimec-daemon-v1)");
    }
    RequestHeader header;
    const std::string& op = doc.at("op").asString();
    if (op == "submit") {
      header.op = RequestOp::Submit;
    } else if (op == "status") {
      header.op = RequestOp::Status;
    } else if (op == "metrics") {
      header.op = RequestOp::Metrics;
    } else if (op == "ping") {
      header.op = RequestOp::Ping;
    } else if (op == "shutdown") {
      header.op = RequestOp::Shutdown;
    } else {
      throw util::JsonParseError("unknown op: " + op);
    }
    if (const util::JsonValue* client = doc.find("client");
        client != nullptr && !client->isNull()) {
      header.client = client->asString().substr(0, 64);
      if (header.client.empty()) {
        header.client = "anonymous";
      }
    }
    if (const util::JsonValue* priority = doc.find("priority");
        priority != nullptr && !priority->isNull()) {
      // clamped as a double: the cast is undefined outside int's range
      header.priority = static_cast<int>(
          std::clamp(priority->asNumber(), 0.0, double{kPriorities - 1}));
    }
    if (const util::JsonValue* redact = doc.find("redact");
        redact != nullptr && !redact->isNull()) {
      header.redact = redact->asBool();
    }
    return header;
  } catch (const util::JsonParseError& e) {
    throw std::runtime_error(std::string("bad request header: ") + e.what());
  }
}

std::string toJsonLine(const RequestHeader& header) {
  util::JsonWriter json;
  json.beginObject()
      .field("schema", kProtocolSchema)
      .field("op", toString(header.op))
      .field("client", header.client)
      .field("priority", static_cast<std::int64_t>(header.priority))
      .field("redact", header.redact)
      .endObject();
  return json.str();
}

std::string acceptedLine() {
  util::JsonWriter json;
  json.beginObject()
      .field("schema", kProtocolSchema)
      .field("accepted", true)
      .endObject();
  return json.str();
}

std::string errorLine(std::string_view code, std::string_view message) {
  util::JsonWriter json;
  json.beginObject()
      .field("schema", kProtocolSchema)
      .field("accepted", false)
      .field("error", code)
      .field("message", message)
      .endObject();
  return json.str();
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket::~Socket() { close(); }

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket listenUnix(const std::string& path) {
  const sockaddr_un addr = makeAddress(path);
  Socket fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    failErrno("socket");
  }
  if (::bind(fd.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (errno != EADDRINUSE) {
      failErrno("bind " + path);
    }
    // The path exists. Probe it: a live server answers connect(), a stale
    // file from a crashed server refuses — only the latter may be replaced.
    Socket probe(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (probe.valid() &&
        ::connect(probe.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      throw std::runtime_error("another daemon is already listening on " +
                               path);
    }
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      failErrno("unlink stale socket " + path);
    }
    if (::bind(fd.fd(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      failErrno("bind " + path);
    }
  }
  if (::listen(fd.fd(), 64) != 0) {
    failErrno("listen " + path);
  }
  return fd;
}

Socket connectUnix(const std::string& path) {
  const sockaddr_un addr = makeAddress(path);
  Socket fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    failErrno("socket");
  }
  if (::connect(fd.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    failErrno("connect " + path + " (is the daemon running?)");
  }
  return fd;
}

void shutdownWrite(const Socket& socket) {
  ::shutdown(socket.fd(), SHUT_WR); // best effort; reads surface any error
}

void writeAll(const Socket& socket, std::string_view data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(socket.fd(), data.data() + written,
                             data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      failErrno("send");
    }
    written += static_cast<std::size_t>(n);
  }
}

std::string readAll(const Socket& socket, double timeoutSeconds) {
  std::string out;
  char buffer[65536];
  while (true) {
    if (!waitReadable(socket.fd(), timeoutSeconds)) {
      throw std::runtime_error("timed out reading from peer");
    }
    const ssize_t n = ::recv(socket.fd(), buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      failErrno("recv");
    }
    if (n == 0) {
      return out;
    }
    out.append(buffer, static_cast<std::size_t>(n));
  }
}

std::string readLine(const Socket& socket, double timeoutSeconds) {
  std::string out;
  char c = 0;
  while (true) {
    if (!waitReadable(socket.fd(), timeoutSeconds)) {
      throw std::runtime_error("timed out reading from peer");
    }
    const ssize_t n = ::recv(socket.fd(), &c, 1, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      failErrno("recv");
    }
    if (n == 0) {
      return out; // EOF before newline: return what arrived
    }
    out.push_back(c);
    if (c == '\n') {
      return out;
    }
  }
}

} // namespace qsimec::daemon

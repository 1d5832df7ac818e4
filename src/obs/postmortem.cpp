#include "obs/postmortem.hpp"

#include "util/json.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

namespace qsimec::obs {

namespace {

/// Merged events an orderly dump keeps (the most recent by sequence number).
constexpr std::size_t kMaxDumpEvents = 256;

struct MergedEvent {
  int slot{0};
  FlightRecorder::Event event;
};

/// Copy the last min(head, capacity) events of every ever-used slot. Safe
/// against concurrent writers: the head is read with acquire, and an event
/// overwritten mid-copy is at worst a torn oldest entry (its seq then
/// disagrees with its neighbours, which the sorted merge tolerates).
std::vector<MergedEvent> collectEvents(const FlightRecorder& rec) {
  std::vector<MergedEvent> merged;
  for (std::size_t i = 0; i < rec.slotCount(); ++i) {
    const FlightRecorder::ThreadRing& ring = rec.slot(i);
    if (!ring.everUsed.load(std::memory_order_relaxed)) {
      continue;
    }
    const std::uint64_t h = ring.head.load(std::memory_order_acquire);
    const std::uint64_t n =
        std::min<std::uint64_t>(h, rec.eventCapacity());
    for (std::uint64_t k = h - n; k < h; ++k) {
      merged.push_back(MergedEvent{
          static_cast<int>(i), ring.events[k & (rec.eventCapacity() - 1)]});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     return a.event.seq < b.event.seq;
                   });
  return merged;
}

std::string_view eventName(const FlightRecorder::Event& e) {
  const std::size_t len =
      ::strnlen(e.name, FlightRecorder::kNameCapacity + 1);
  return {e.name, std::min(len, FlightRecorder::kNameCapacity)};
}

std::string_view boundedString(const char* s, std::size_t cap) {
  return {s, std::min(::strnlen(s, cap), cap - 1)};
}

void appendPairLines(const FlightRecorder& rec, std::ostringstream& out) {
  for (std::size_t i = 0; i < FlightRecorder::kMaxPairNotes; ++i) {
    const FlightRecorder::PairNote& note = rec.pairNote(i);
    if (note.state.load(std::memory_order_acquire) != 2) {
      continue;
    }
    util::JsonWriter json;
    json.beginObject()
        .field("type", "pair")
        .field("label", boundedString(note.label, sizeof(note.label)))
        .field("fingerprint",
               boundedString(note.fingerprint, sizeof(note.fingerprint)))
        .endObject();
    out << json.str() << '\n';
  }
}

} // namespace

std::string renderPostmortem(const FlightRecorder& recorder,
                             const PostmortemOptions& options) {
  std::ostringstream out;
  const std::uint64_t now = recorder.nowMicros();
  {
    util::JsonWriter json;
    json.beginObject()
        .field("schema", kPostmortemSchema)
        .field("version", 1)
        .field("reason", options.reason)
        .field("label", options.label)
        .field("redacted", options.redact);
    if (!options.redact) {
      json.field("signal", 0)
          .field("ts_micros", now)
          .field("events_recorded", recorder.eventsRecorded())
          .field("events_dropped", recorder.eventsDropped())
          .field("threads",
                 static_cast<std::uint64_t>(recorder.threadsRegistered()));
    }
    json.endObject();
    out << json.str() << '\n';
  }

  appendPairLines(recorder, out);

  std::vector<MergedEvent> merged = collectEvents(recorder);
  if (options.redact) {
    // the deterministic subset: Mark events only, stripped of every
    // scheduling-dependent field (see header comment)
    std::erase_if(merged, [](const MergedEvent& m) {
      return m.event.kind != static_cast<std::uint8_t>(FlightEventKind::Mark);
    });
  }
  if (merged.size() > kMaxDumpEvents) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<std::ptrdiff_t>(kMaxDumpEvents));
  }

  if (!options.redact) {
    for (std::size_t i = 0; i < recorder.slotCount(); ++i) {
      const FlightRecorder::ThreadRing& ring = recorder.slot(i);
      if (!ring.everUsed.load(std::memory_order_relaxed)) {
        continue;
      }
      const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
      const std::uint64_t beat =
          ring.lastBeatMicros.load(std::memory_order_relaxed);
      util::JsonWriter json;
      json.beginObject()
          .field("type", "thread")
          .field("slot", static_cast<std::uint64_t>(i));
      if (ring.labelState.load(std::memory_order_acquire) == 2) {
        json.field("label", boundedString(ring.label, sizeof(ring.label)));
      }
      json.field("active", ring.inUse.load(std::memory_order_relaxed))
          .field("heartbeat_age_micros", now > beat ? now - beat : 0)
          .field("nodes_live", ring.nodesLive.load(std::memory_order_relaxed))
          .field("unique_fill_ppm",
                 ring.uniqueFillPpm.load(std::memory_order_relaxed))
          .field("gate_left", ring.gateLeft.load(std::memory_order_relaxed))
          .field("gate_right", ring.gateRight.load(std::memory_order_relaxed))
          .field("events", h)
          .field("events_dropped",
                 h > recorder.eventCapacity() ? h - recorder.eventCapacity()
                                              : 0)
          .endObject();
      out << json.str() << '\n';
    }
  }

  for (const MergedEvent& m : merged) {
    util::JsonWriter json;
    json.beginObject().field("type", "event");
    if (!options.redact) {
      json.field("seq", m.event.seq)
          .field("ts_micros", m.event.tsMicros)
          .field("slot", static_cast<std::uint64_t>(m.slot));
    }
    json.field("kind", toString(static_cast<FlightEventKind>(m.event.kind)))
        .field("name", eventName(m.event))
        .field("a", m.event.a);
    if (!options.redact) {
      json.field("b", m.event.b);
    }
    json.endObject();
    out << json.str() << '\n';
  }

  if (!options.redact && options.metrics != nullptr) {
    util::JsonWriter json;
    json.beginObject()
        .field("type", "metrics")
        .rawField("data", toJson(*options.metrics))
        .endObject();
    out << json.str() << '\n';
  }

  {
    util::JsonWriter json;
    json.beginObject().field("type", "end");
    if (!options.redact) {
      json.field("events", static_cast<std::uint64_t>(merged.size()));
    }
    json.endObject();
    out << json.str() << '\n';
  }
  return out.str();
}

void writePostmortemFile(const std::string& path,
                         const FlightRecorder& recorder,
                         const PostmortemOptions& options) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot write postmortem dump: " + path);
  }
  os << renderPostmortem(recorder, options);
  if (!os) {
    throw std::runtime_error("short write on postmortem dump: " + path);
  }
}

// --- async-signal-safe dump path ---------------------------------------------

namespace {

/// Buffered write(2) formatter. Every method is async-signal-safe: no
/// allocation, no locks, no stdio.
struct SigWriter {
  int fd;
  char buf[512];
  std::size_t len{0};

  void flush() noexcept {
    std::size_t off = 0;
    while (off < len) {
      const ::ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) {
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }
  void ch(char c) noexcept {
    if (len == sizeof(buf)) {
      flush();
    }
    buf[len++] = c;
  }
  void str(const char* s) noexcept {
    while (*s != '\0') {
      ch(*s++);
    }
  }
  /// Quoted JSON string; bytes that would need escaping are replaced by
  /// '_' (names and labels are ASCII identifiers; fidelity loses to
  /// signal-safety here).
  void quoted(const char* s, std::size_t cap) noexcept {
    ch('"');
    for (std::size_t i = 0; i < cap && s[i] != '\0'; ++i) {
      const unsigned char c = static_cast<unsigned char>(s[i]);
      ch(c < 0x20 || c == '"' || c == '\\' || c >= 0x7f
             ? '_'
             : static_cast<char>(c));
    }
    ch('"');
  }
  void u64(std::uint64_t v) noexcept {
    char tmp[20];
    std::size_t n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) {
      ch(tmp[--n]);
    }
  }
  void i64(std::int64_t v) noexcept {
    if (v < 0) {
      ch('-');
      u64(static_cast<std::uint64_t>(-(v + 1)) + 1);
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }
};

void writeSignalSafeDump(int fd, const FlightRecorder& rec,
                         int sig) noexcept {
  SigWriter w{fd, {}, 0};
  const std::uint64_t now = rec.nowMicros();

  w.str("{\"schema\":\"qsimec-postmortem-v1\",\"version\":1,"
        "\"reason\":\"signal\",\"label\":\"\",\"redacted\":false,"
        "\"signal\":");
  w.i64(sig);
  w.str(",\"ts_micros\":");
  w.u64(now);
  w.str(",\"events_recorded\":");
  w.u64(rec.eventsRecorded());
  w.str(",\"events_dropped\":");
  w.u64(rec.eventsDropped());
  w.str(",\"threads\":");
  w.u64(rec.threadsRegistered());
  w.str("}\n");

  for (std::size_t i = 0; i < FlightRecorder::kMaxPairNotes; ++i) {
    const FlightRecorder::PairNote& note = rec.pairNote(i);
    if (note.state.load(std::memory_order_acquire) != 2) {
      continue;
    }
    w.str("{\"type\":\"pair\",\"label\":");
    w.quoted(note.label, sizeof(note.label));
    w.str(",\"fingerprint\":");
    w.quoted(note.fingerprint, sizeof(note.fingerprint));
    w.str("}\n");
  }

  for (std::size_t i = 0; i < rec.slotCount(); ++i) {
    const FlightRecorder::ThreadRing& ring = rec.slot(i);
    if (!ring.everUsed.load(std::memory_order_relaxed)) {
      continue;
    }
    const std::uint64_t h = ring.head.load(std::memory_order_acquire);
    const std::uint64_t beat =
        ring.lastBeatMicros.load(std::memory_order_relaxed);
    w.str("{\"type\":\"thread\",\"slot\":");
    w.u64(i);
    if (ring.labelState.load(std::memory_order_acquire) == 2) {
      w.str(",\"label\":");
      w.quoted(ring.label, sizeof(ring.label));
    }
    w.str(",\"active\":");
    w.str(ring.inUse.load(std::memory_order_relaxed) ? "true" : "false");
    w.str(",\"heartbeat_age_micros\":");
    w.u64(now > beat ? now - beat : 0);
    w.str(",\"nodes_live\":");
    w.i64(ring.nodesLive.load(std::memory_order_relaxed));
    w.str(",\"unique_fill_ppm\":");
    w.i64(ring.uniqueFillPpm.load(std::memory_order_relaxed));
    w.str(",\"gate_left\":");
    w.i64(ring.gateLeft.load(std::memory_order_relaxed));
    w.str(",\"gate_right\":");
    w.i64(ring.gateRight.load(std::memory_order_relaxed));
    w.str(",\"events\":");
    w.u64(h);
    w.str(",\"events_dropped\":");
    w.u64(h > rec.eventCapacity() ? h - rec.eventCapacity() : 0);
    w.str("}\n");

    // per-slot in ring order (a merge sort would allocate); the reader
    // orders by seq
    const std::uint64_t n = std::min<std::uint64_t>(h, rec.eventCapacity());
    for (std::uint64_t k = h - n; k < h; ++k) {
      const FlightRecorder::Event& e =
          ring.events[k & (rec.eventCapacity() - 1)];
      w.str("{\"type\":\"event\",\"seq\":");
      w.u64(e.seq);
      w.str(",\"ts_micros\":");
      w.u64(e.tsMicros);
      w.str(",\"slot\":");
      w.u64(i);
      w.str(",\"kind\":");
      char kindBuf[16];
      const std::string_view kind =
          toString(static_cast<FlightEventKind>(e.kind));
      const std::size_t kn = std::min(kind.size(), sizeof(kindBuf) - 1);
      for (std::size_t c = 0; c < kn; ++c) {
        kindBuf[c] = kind[c];
      }
      kindBuf[kn] = '\0';
      w.quoted(kindBuf, sizeof(kindBuf));
      w.str(",\"name\":");
      w.quoted(e.name, sizeof(e.name));
      w.str(",\"a\":");
      w.i64(e.a);
      w.str(",\"b\":");
      w.i64(e.b);
      w.str("}\n");
    }
  }

  w.str("{\"type\":\"end\"}\n");
  w.flush();
}

std::atomic<const FlightRecorder*> gArmedRecorder{nullptr};
char gDumpDir[384]; // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)
bool gHandlersInstalled = false;
struct sigaction gPrevAbrt; // NOLINT
struct sigaction gPrevSegv; // NOLINT

extern "C" void qsimecPostmortemSignalHandler(int sig) {
  // one shot: a fault inside the dump path must not recurse into it
  const FlightRecorder* rec =
      gArmedRecorder.exchange(nullptr, std::memory_order_acq_rel);
  if (rec != nullptr) {
    char path[448];
    std::size_t n = 0;
    while (n < sizeof(gDumpDir) && gDumpDir[n] != '\0') {
      path[n] = gDumpDir[n];
      ++n;
    }
    const char* name = "/postmortem-signal.jsonl";
    for (const char* p = name; *p != '\0' && n < sizeof(path) - 1; ++p) {
      path[n++] = *p;
    }
    path[n] = '\0';
    const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      writeSignalSafeDump(fd, *rec, sig);
      ::close(fd);
    }
  }
  // restore the default disposition and re-raise so the exit status still
  // reflects the signal (death tests and shells see SIGABRT/SIGSEGV)
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

} // namespace

void armSignalDump(const FlightRecorder* recorder,
                   const std::string& directory) {
  const std::size_t n = std::min(directory.size(), sizeof(gDumpDir) - 1);
  std::memcpy(gDumpDir, directory.data(), n);
  gDumpDir[n] = '\0';
  gArmedRecorder.store(recorder, std::memory_order_release);
  if (!gHandlersInstalled) {
    struct sigaction action {};
    action.sa_handler = &qsimecPostmortemSignalHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    ::sigaction(SIGABRT, &action, &gPrevAbrt);
    ::sigaction(SIGSEGV, &action, &gPrevSegv);
    gHandlersInstalled = true;
  }
}

void disarmSignalDump() {
  gArmedRecorder.store(nullptr, std::memory_order_release);
  if (gHandlersInstalled) {
    ::sigaction(SIGABRT, &gPrevAbrt, nullptr);
    ::sigaction(SIGSEGV, &gPrevSegv, nullptr);
    gHandlersInstalled = false;
  }
}

std::string signalDumpPath(const std::string& directory) {
  return directory + "/postmortem-signal.jsonl";
}

} // namespace qsimec::obs

// A journal captured in memory for tests. obs::Journal only streams, so a
// test streams it into a string and splits the committed lines back out.

#pragma once

#include "obs/context.hpp"

#include <sstream>
#include <string>
#include <vector>

namespace qsimec::testutil {

struct CapturedJournal {
  std::ostringstream sink; // declared first: outlives the journal's pointer
  obs::Journal journal;

  CapturedJournal() { journal.streamTo(&sink); }
  CapturedJournal(const CapturedJournal&) = delete;
  CapturedJournal& operator=(const CapturedJournal&) = delete;

  /// A Context whose only sink is this journal.
  [[nodiscard]] obs::Context context() { return {.journal = &journal}; }

  /// The lines streamed so far, without their newlines.
  [[nodiscard]] std::vector<std::string> lines() const {
    std::vector<std::string> out;
    std::istringstream is(sink.str());
    for (std::string line; std::getline(is, line);) {
      out.push_back(line);
    }
    return out;
  }
};

} // namespace qsimec::testutil

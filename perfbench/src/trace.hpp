// Output helpers: full-precision JSON numbers and the Chrome trace-event
// writer for the traced run (chrome://tracing and Perfetto read it).
#pragma once

#include <string>
#include <vector>

#include "timed_channel.hpp"

namespace perfbench {

// A JSON number with every significant digit of the double (non-finite
// values become null).
std::string jsonNumber(double value);

// Write 'spans' as complete ("X") trace events, one thread row per
// worker, with user/frame/bytes args; 'metadataJson' (a JSON object)
// lands under "otherData". Returns false when the file cannot be written.
bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metadataJson);

}  // namespace perfbench

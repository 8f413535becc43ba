#include "trace.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "semholo/core/telemetry.hpp"

namespace perfbench {

std::string jsonNumber(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metadataJson) {
    semholo::core::telemetry::JsonWriter json;
    json.beginObject().beginArray("traceEvents");
    for (const Span& s : spans) {
        json.beginObject()
            .field("name", s.name)
            .field("cat", s.layer)
            .field("ph", std::string("X"))
            .raw("ts", jsonNumber(s.startMs * 1000.0))
            .raw("dur", jsonNumber((s.endMs - s.startMs) * 1000.0))
            .field("pid", std::uint64_t{1})
            .field("tid", static_cast<std::uint64_t>(s.thread))
            .beginObject("args")
            .field("user", static_cast<std::uint64_t>(s.user))
            .field("frame", static_cast<std::uint64_t>(s.frame))
            .field("bytes", s.bytes)
            .endObject()
            .endObject();
    }
    json.endArray()
        .field("displayTimeUnit", std::string("ms"))
        .raw("otherData", metadataJson)
        .endObject();
    std::ofstream out(path);
    out << json.str() << '\n';
    return static_cast<bool>(out);
}

}  // namespace perfbench

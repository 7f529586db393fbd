#include "trace/io.hpp"

#include <fstream>
#include <sstream>

#include "util/log.hpp"

namespace gcr::trace {
namespace {

char kind_char(EventKind kind) {
  switch (kind) {
    case EventKind::kSend: return 'S';
    case EventKind::kDeliver: return 'D';
  }
  return '?';
}

bool parse_kind(char ch, EventKind* out) {
  switch (ch) {
    case 'S': *out = EventKind::kSend; return true;
    case 'D': *out = EventKind::kDeliver; return true;
    default: return false;
  }
}

}  // namespace

void write_trace(std::ostream& os, const Trace& trace) {
  os << "# gcr trace v1: time_ns kind rank peer tag bytes\n";
  for (const TraceRecord& rec : trace) {
    os << rec.time << ' ' << kind_char(rec.kind) << ' ' << rec.rank << ' '
       << rec.peer << ' ' << rec.tag << ' ' << rec.bytes << '\n';
  }
}

Trace read_trace(std::istream& is) {
  Trace trace;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    TraceRecord rec;
    char kind_ch = 0;
    std::string trailing;
    // A token past the six columns is malformed too, not silently dropped.
    if (!(ls >> rec.time >> kind_ch >> rec.rank >> rec.peer >> rec.tag >>
          rec.bytes) ||
        ls >> trailing) {
      GCR_WARN("skipping malformed trace line: %s", line.c_str());
      continue;
    }
    if (!parse_kind(kind_ch, &rec.kind)) {
      GCR_WARN("skipping trace line with unknown kind: %s", line.c_str());
      continue;
    }
    trace.push_back(rec);
  }
  return trace;
}

bool save_trace(const std::string& path, const Trace& trace) {
  std::ofstream os(path);
  if (!os) return false;
  write_trace(os, trace);
  return static_cast<bool>(os);
}

Trace load_trace(const std::string& path, bool* ok) {
  std::ifstream is(path);
  if (!is) {
    if (ok) *ok = false;
    return {};
  }
  if (ok) *ok = true;
  return read_trace(is);
}

}  // namespace gcr::trace

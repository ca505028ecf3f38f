#include "core.hpp"

#include <sys/resource.h>

#include <fstream>

namespace perfbench {

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"call\": " << s.call
        << ", \"name\": \"" << s.name << "\", \"host_start_ns\": "
        << s.host_start_ns << ", \"host_end_ns\": " << s.host_end_ns;
    if (s.virt_start_us >= 0) {
      out << ", \"virt_start_us\": " << s.virt_start_us
          << ", \"virt_end_us\": " << s.virt_end_us;
    }
    out << "}";
  }
  out << "\n], \"snapshots\": [";
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    const Snapshot& s = snapshots_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"span\": " << s.span
        << ", \"boundary\": \"" << s.boundary << "\", \"counts\": {";
    bool first = true;
    for (const auto& [name, value] : s.counts) {
      out << (first ? "" : ", ") << "\"" << name << "\": " << value;
      first = false;
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

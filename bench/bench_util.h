#ifndef WEBDIS_BENCH_BENCH_UTIL_H_
#define WEBDIS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/clock.h"

namespace webdis::bench {

/// Minimal aligned-table printer for the experiment harnesses: every bench
/// prints the rows/series its table or figure reports, paper-style.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const std::string& h : headers_) widths_.push_back(h.size());
  }

  void AddRow(std::vector<std::string> cells) {
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size());
    }
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    PrintRow(headers_);
    std::string rule;
    for (size_t i = 0; i < headers_.size(); ++i) {
      rule += std::string(widths_[i], '-');
      rule += "  ";
    }
    std::printf("%s\n", rule.c_str());
    for (const std::vector<std::string>& row : rows_) {
      PrintRow(row);
    }
  }

 private:
  void PrintRow(const std::vector<std::string>& cells) const {
    std::string line;
    for (size_t i = 0; i < cells.size(); ++i) {
      line += cells[i];
      if (i < widths_.size() && widths_[i] > cells[i].size()) {
        line += std::string(widths_[i] - cells[i].size(), ' ');
      }
      line += "  ";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

/// Renders simulated microseconds as milliseconds with 1 decimal.
inline std::string Ms(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(t) / 1000.0);
  return buf;
}

/// Renders a byte count as KB with 1 decimal.
inline std::string Kb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(bytes) / 1024.0);
  return buf;
}

inline std::string Num(uint64_t v) { return std::to_string(v); }

/// Ratio with 1 decimal, e.g. "12.3x".
inline std::string Ratio(double num, double den) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fx", den == 0 ? 0.0 : num / den);
  return buf;
}

/// One "VmX:  <n> kB" field from /proc/self/status, in bytes; 0 on
/// platforms without procfs (memory gates disable themselves there).
inline uint64_t ProcStatusBytes(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const size_t field_len = std::strlen(field);
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0) {
      std::sscanf(line + field_len, " %llu", &kb);
      break;
    }
  }
  std::fclose(f);
  return static_cast<uint64_t>(kb) * 1024;
}

/// Resident set size right now.
inline uint64_t CurrentRssBytes() { return ProcStatusBytes("VmRSS:"); }

/// Peak resident set size of this process ("high-water mark") — the
/// peak_rss_bytes field the memory-gated benches record.
inline uint64_t PeakRssBytes() { return ProcStatusBytes("VmHWM:"); }

/// Machine-readable benchmark output: one JSON object per line, written next
/// to the human table so tools/bench_compare.py can gate CI on wall-clock
/// regressions. Fixed schema — bench_compare keys rows on workload and
/// compares wall_ms.
class JsonBenchWriter {
 public:
  explicit JsonBenchWriter(const std::string& path)
      : file_(std::fopen(path.c_str(), "w")) {
    if (file_ == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }
  }
  ~JsonBenchWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  JsonBenchWriter(const JsonBenchWriter&) = delete;
  JsonBenchWriter& operator=(const JsonBenchWriter&) = delete;

  /// `extra` is raw JSON appended to the row after the fixed fields, e.g.
  /// ", \"cache_hit_rate\": 0.42" — empty for the plain schema.
  void Record(const std::string& workload, double wall_ms, double virtual_ms,
              uint64_t messages, uint64_t bytes,
              const std::string& extra = "") {
    if (file_ == nullptr) return;
    std::fprintf(
        file_,
        "{\"workload\": \"%s\", \"wall_ms\": %.3f, "
        "\"virtual_ms\": %.3f, \"messages\": %llu, \"bytes\": %llu%s}\n",
        workload.c_str(), wall_ms, virtual_ms,
        static_cast<unsigned long long>(messages),
        static_cast<unsigned long long>(bytes), extra.c_str());
    std::fflush(file_);
  }

 private:
  std::FILE* file_;
};

}  // namespace webdis::bench

#endif  // WEBDIS_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment benches (E1..E9): each bench binary
// regenerates one table of EXPERIMENTS.md and prints it to stdout in a
// stable, diffable format.
//
// Sweep-heavy benches run on the parallel campaign engine
// (common/thread_pool).  The table contents are independent of the job
// count; wall-clock / runs-per-second reporting goes to STDERR so the
// stdout tables stay byte-identical run to run.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/at2.hpp"
#include "sim/harness.hpp"

namespace indulgence::bench {

inline KernelOptions es_options(Round max_rounds = 256) {
  KernelOptions o;
  o.model = Model::ES;
  o.max_rounds = max_rounds;
  return o;
}

inline KernelOptions scs_options(Round max_rounds = 64) {
  KernelOptions o;
  o.model = Model::SCS;
  o.max_rounds = max_rounds;
  return o;
}

inline AlgorithmFactory default_at2() {
  return at2_factory(hurfin_raynal_factory());
}

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "==================================================\n"
            << id << "\n" << claim << "\n"
            << "==================================================\n\n";
}

inline std::string check_mark(bool ok) { return ok ? "yes" : "NO"; }

/// Where a persisted BENCH_*.json artifact goes: the top of the build tree
/// (baked in at configure time), whatever CWD the bench runs from.  The
/// tracked copies at the repository root are never written by a run, so a
/// sanitizer or scratch build cannot overwrite them; refreshing one is an
/// explicit copy out of the build tree.  `scripts/check_bench_keys.sh
/// <build-dir>` checks the schema of what a run wrote.
inline std::string artifact_path(const std::string& name) {
#ifdef INDULGENCE_ARTIFACT_DIR
  return std::string(INDULGENCE_ARTIFACT_DIR) + "/" + name;
#else
  return name;
#endif
}

/// The campaign options benches sweep with: jobs from INDULGENCE_JOBS (or
/// all cores), default chunking, fixed seed so sampled sweeps are
/// reproducible.
inline CampaignOptions bench_campaign() { return default_campaign(); }

/// Minimal streaming JSON emitter for the persisted BENCH_*.json
/// artifacts (no third-party JSON dependency in the image).  Usage:
///
///   JsonWriter json("BENCH_x6_sharded.json");
///   json.begin_object();
///   json.key("bench").value("x6_sharded_rsm");
///   json.key("sweep").begin_array();
///   ...
///   json.end_array();
///   json.end_object();   // closes and flushes; throws on short write
///
/// Commas and indentation are handled by the writer; keys are emitted in
/// call order so the artifact is diffable run to run (timing fields
/// aside).
class JsonWriter {
 public:
  explicit JsonWriter(const std::string& path) : out_(path, std::ios::trunc) {
    if (!out_) throw std::runtime_error("bench: cannot open " + path);
    path_ = path;
  }

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(const std::string& name) {
    separate();
    quoted(name);
    out_ << ": ";
    pending_key_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& v) {
    separate();
    quoted(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(bool v) {
    separate();
    out_ << (v ? "true" : "false");
    return *this;
  }
  JsonWriter& value(long v) {
    separate();
    out_ << v;
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<long>(v)); }
  JsonWriter& value(double v) {
    separate();
    if (!std::isfinite(v)) {
      out_ << "null";  // JSON has no inf/nan
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      out_ << buf;
    }
    return *this;
  }

 private:
  JsonWriter& open(char bracket) {
    separate();
    out_ << bracket;
    first_.push_back(true);
    return *this;
  }

  JsonWriter& close(char bracket) {
    first_.pop_back();
    newline();
    out_ << bracket;
    if (first_.empty()) {
      out_ << "\n";
      out_.flush();
      if (!out_) throw std::runtime_error("bench: short write to " + path_);
    }
    return *this;
  }

  /// Comma before every element but a container's first; keys and their
  /// values stay on one line.
  void separate() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ << ",";
    first_.back() = false;
    newline();
  }

  void newline() {
    out_ << "\n";
    for (std::size_t i = 0; i < first_.size(); ++i) out_ << "  ";
  }

  void quoted(const std::string& s) {
    out_ << '"';
    for (char c : s) {
      switch (c) {
        case '"': out_ << "\\\""; break;
        case '\\': out_ << "\\\\"; break;
        case '\n': out_ << "\\n"; break;
        case '\t': out_ << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ << buf;
          } else {
            out_ << c;
          }
      }
    }
    out_ << '"';
  }

  std::ofstream out_;
  std::string path_;
  std::vector<bool> first_;
  bool pending_key_ = false;
};

/// Scans a persisted BENCH_*.json artifact for every `"key": <number>`
/// occurrence and returns the numbers in file order.  A text scan, not a
/// JSON parser — enough for the flat numeric keys JsonWriter emits, with
/// no third-party JSON dependency.  Missing file or key → empty vector
/// (benches must degrade gracefully when no baseline is checked in).
inline std::vector<double> scan_json_numbers(const std::string& path,
                                             const std::string& key) {
  std::ifstream in(path);
  if (!in) return {};
  std::vector<double> found;
  const std::string needle = "\"" + key + "\"";
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) continue;
    std::size_t pos = line.find(':', at + needle.size());
    if (pos == std::string::npos) continue;
    ++pos;
    while (pos < line.size() && line[pos] == ' ') ++pos;
    try {
      std::size_t used = 0;
      const double v = std::stod(line.substr(pos), &used);
      if (used > 0) found.push_back(v);
    } catch (const std::exception&) {
      // non-numeric value (string/bool/object) — not a baseline number
    }
  }
  return found;
}

/// First match of scan_json_numbers, or `fallback` when absent.
inline double scan_json_number(const std::string& path, const std::string& key,
                               double fallback = 0) {
  const std::vector<double> found = scan_json_numbers(path, key);
  return found.empty() ? fallback : found.front();
}

/// Sorted-percentile helper shared by the latency-reporting benches.
inline double percentile_of(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Wall-clock timer for campaign reporting.  Timing lines go to stderr —
/// never stdout — so the regenerated tables stay diffable.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Prints "label: R runs in S s (X runs/s, jobs=J)" to stderr.
  void report(const std::string& label, long runs, int jobs) const {
    const double s = seconds();
    std::cerr << label << ": " << runs << " runs in " << s << " s";
    if (s > 0.0) {
      std::cerr << " (" << static_cast<long>(static_cast<double>(runs) / s)
                << " runs/s, jobs=" << jobs << ")";
    }
    std::cerr << "\n";
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace indulgence::bench

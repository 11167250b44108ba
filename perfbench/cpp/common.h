// Helpers shared by the two benchmark drivers: clocks, percentiles, the
// in-memory span recorder behind the traced run, /proc readers, the
// verdict digest and the one-line JSON result both drivers print.
#pragma once

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/device_identifier.h"
#include "devices/simulator.h"
#include "util/thread_pool.h"

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Keeps the compiler from discarding a replayed call's result.
template <typename T>
inline void Keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; NaN when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Samples per window of the windowed statistics: enough that a
/// window's p99 has ten samples beyond it.
constexpr std::size_t kWindow = 1000;
/// Which window a run reports: the lower quartile of the per-window
/// values (for a "higher is better" metric, the upper quartile). On a
/// shared machine, CPU contention from other tenants arrives in bursts
/// of a fraction of a second that slow the same code by up to 2x; the
/// better-quartile window measures the program rather than its
/// neighbours, and keeps the run-to-run spread within the bounds. A
/// change that slows every window still shows in full.
constexpr double kAcrossWindows = 0.25;

/// The kAcrossWindows quantile, across consecutive windows of `window`
/// samples, of each window's q-quantile (a trailing partial window joins
/// the one before). With fewer than two windows: the plain quantile.
inline double WindowedQuantile(const std::vector<double>& values, double q,
                               std::size_t window = kWindow) {
  if (values.size() < 2 * window) return Quantile(values, q);
  std::vector<double> per_window;
  for (std::size_t start = 0; start + window <= values.size();
       start += window) {
    const std::size_t end =
        values.size() - (start + window) < window ? values.size()
                                                  : start + window;
    per_window.push_back(Quantile(
        std::vector<double>(values.begin() + static_cast<long>(start),
                            values.begin() + static_cast<long>(end)),
        q));
    if (end == values.size()) break;
  }
  return Quantile(per_window, kAcrossWindows);
}

/// Rate of `events` (completion times, ascending) in the better quartile
/// of windows of kWindow consecutive events, per second.
inline double WindowedRate(const std::vector<std::uint64_t>& events) {
  std::vector<double> per_window;
  for (std::size_t start = 0; start + kWindow < events.size();
       start += kWindow)
    per_window.push_back(static_cast<double>(kWindow) * 1e9 /
                         static_cast<double>(events[start + kWindow] -
                                             events[start]));
  return Quantile(per_window, 1.0 - kAcrossWindows);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Command-line flags of the form `--name value`.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0)
        throw std::runtime_error("unexpected argument " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  [[nodiscard]] std::string Str(const std::string& name,
                                const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double Num(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Trains the bank exactly as `sentinelctl serve` does with its defaults:
/// the 27-type catalog dataset, 20 setup episodes per type, seed 42,
/// default identifier config, trained over a thread pool (training is
/// thread-count independent, so the bank is bit-identical to the
/// server's).
inline sentinel::core::DeviceIdentifier TrainCatalogBank() {
  const auto dataset = sentinel::devices::GenerateFingerprintDataset(20, 42);
  std::vector<sentinel::core::LabelledFingerprint> train;
  train.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i)
    train.push_back({&dataset.fingerprints[i], &dataset.fixed[i],
                     dataset.labels[i]});
  sentinel::core::DeviceIdentifier identifier;
  sentinel::util::ThreadPool pool;
  identifier.set_thread_pool(&pool);
  identifier.Train(train);
  identifier.set_thread_pool(nullptr);
  return identifier;
}

/// One span of the traced run: a timed call into one layer.
struct Span {
  std::uint32_t name = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Index of the enclosing span, or -1 for a root.
  std::int64_t parent = -1;
  /// Device or request the span belongs to.
  std::uint64_t id = 0;
};

/// In-memory span store. Spans are only appended during the run and
/// written out once at the end. Per-name totals are accumulated as spans
/// close, so they stay exact past the retention cap.
class SpanRecorder {
 public:
  static constexpr std::size_t kRetained = 100'000;

  std::uint32_t Intern(const std::string& name) {
    const auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    index_.emplace(name, id);
    total_ns_.push_back(0.0);
    count_.push_back(0);
    return id;
  }

  /// Claims the storage slot of a span that has not closed yet (an
  /// enclosing call whose children close first). Returns -1 once past
  /// the retention cap.
  std::int64_t Reserve() {
    if (spans_.size() >= kRetained) return -1;
    spans_.emplace_back();
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  /// Records a closed span into `slot` (from Reserve, or -1 to count it
  /// only); `parent` is the enclosing span's slot, or -1 for a root.
  void Record(std::int64_t slot, std::uint32_t name, std::uint64_t start_ns,
              std::uint64_t end_ns, std::int64_t parent, std::uint64_t id) {
    total_ns_[name] += static_cast<double>(end_ns - start_ns);
    ++count_[name];
    if (slot >= 0)
      spans_[static_cast<std::size_t>(slot)] = {name, start_ns, end_ns,
                                                parent, id};
  }

  /// Reserve + Record for a span that closes before any child.
  void Add(std::uint32_t name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::int64_t parent, std::uint64_t id) {
    Record(Reserve(), name, start_ns, end_ns, parent, id);
  }

  [[nodiscard]] double TotalNs(std::uint32_t name) const {
    return total_ns_[name];
  }
  /// Mean duration of the spans named `name`; NaN when there are none.
  [[nodiscard]] double MeanNs(std::uint32_t name) const {
    return count_[name] == 0
               ? std::nan("")
               : total_ns_[name] / static_cast<double>(count_[name]);
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON ("X" events, microseconds), parent and id in
  /// each event's args.
  void WriteChromeJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << "{\"traceEvents\":[";
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[320];
      std::snprintf(
          line, sizeof(line),
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,"
          "\"id\":%llu}}",
          i == 0 ? "" : ",\n", names_[s.name].c_str(),
          static_cast<double>(s.start_ns - base) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
          static_cast<long long>(s.parent),
          static_cast<unsigned long long>(s.id));
      out << line;
    }
    out << "]}\n";
  }


 private:
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> index_;
  std::vector<double> total_ns_;
  std::vector<std::uint64_t> count_;
  std::vector<Span> spans_;
};

/// Order-insensitive verdict digest: entries are keyed (device or probe
/// id -> rendered verdict) and hashed in key order, so thread count,
/// timing and batch composition cannot change it.
class Digest {
 public:
  /// Keeps the first value seen per key.
  void Add(const std::string& key, const std::string& value) {
    entries_.emplace(key, value);
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::string Hex() const {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string& s) {
      for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
      }
      h ^= 0xff;
      h *= 1099511628211ull;
    };
    for (const auto& [key, value] : entries_) {
      mix(key);
      mix(value);
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }

 private:
  std::map<std::string, std::string> entries_;
};

/// Reads one `Key:   value kB` line of /proc/<pid>/status.
inline double ProcStatusField(const std::string& pid, const std::string& key) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) != 0) continue;
    std::istringstream fields(line.substr(key.size() + 1));
    double value = 0.0;
    fields >> value;
    return value;
  }
  return std::nan("");
}

/// Peak resident set (VmHWM) in MiB.
inline double PeakRssMiB(const std::string& pid) {
  return ProcStatusField(pid, "VmHWM") / 1024.0;
}

/// CPU time consumed so far by every thread of `pid`, in nanoseconds
/// (sum of /proc/<pid>/task/*/schedstat run times: nanosecond resolution,
/// unlike the tick-granular utime/stime of /proc/<pid>/stat).
inline double ProcessCpuNs(const std::string& pid) {
  const std::string dir = "/proc/" + pid + "/task";
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) return std::nan("");
  double total = 0.0;
  while (const dirent* entry = ::readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + entry->d_name + "/schedstat");
    double run_ns = 0.0;
    if (in >> run_ns) total += run_ns;
  }
  ::closedir(tasks);
  return total;
}

/// Shortest-round-trip rendering of a measured value (all its digits).
inline std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// A driver's result: metrics by name with units, counts, the digest and
/// the first few check failures. Printed as one JSON line on stdout for
/// run.py to assemble the benchmark's final result from.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checked = 0;
  std::vector<std::string> mismatches;
  std::string digest;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, std::string> notes;
  std::uint64_t mismatch_count = 0;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Mismatch(const std::string& what) {
    if (mismatches.size() < 20) mismatches.push_back(what);
    else mismatches.back() = "(more mismatches omitted)";
    ++mismatch_count;
  }

  void Print() const {
    std::string out = "{\"attempted\":" + std::to_string(attempted) +
                      ",\"failed\":" + std::to_string(failed) +
                      ",\"checked\":" + std::to_string(checked) +
                      ",\"mismatch_count\":" + std::to_string(mismatch_count) +
                      ",\"digest\":\"" + digest + "\",\"mismatches\":[";
    for (std::size_t i = 0; i < mismatches.size(); ++i) {
      if (i > 0) out += ',';
      out += '"' + Escape(mismatches[i]) + '"';
    }
    out += "],\"notes\":{";
    bool first = true;
    for (const auto& [key, value] : notes) {
      if (!first) out += ',';
      first = false;
      out += '"' + Escape(key) + "\":\"" + Escape(value) + '"';
    }
    out += "},\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) out += ',';
      out += '"' + metrics[i].first + "\":{\"value\":" +
             Num(metrics[i].second.first) + ",\"unit\":\"" +
             metrics[i].second.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

  static std::string Escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
        continue;
      }
      out += c;
    }
    return out;
  }
};

}  // namespace perfbench

#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/json.h"
#include "util/check.h"

namespace sentinel::obs {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

TimeSeriesStore::Series::Series(Kind kind_in, std::size_t capacity,
                                std::size_t bucket_count_in,
                                std::uint64_t first_sample_in)
    : kind(kind_in),
      first_sample(first_sample_in),
      times(std::make_unique<std::atomic<std::int64_t>[]>(capacity)),
      values(std::make_unique<std::atomic<double>[]>(capacity)),
      bucket_count(bucket_count_in),
      buckets(bucket_count_in == 0
                  ? nullptr
                  : std::make_unique<std::atomic<std::uint64_t>[]>(
                        capacity * bucket_count_in)),
      sums(bucket_count_in == 0
               ? nullptr
               : std::make_unique<std::atomic<double>[]>(capacity)) {
  // ordering: relaxed (all) — pre-publication zeroing; the store's head_
  // release fence publishes the rings before any reader can index them.
  for (std::size_t i = 0; i < capacity; ++i) {
    times[i].store(0, std::memory_order_relaxed);
    values[i].store(0.0, std::memory_order_relaxed);
    if (sums) sums[i].store(0.0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < capacity * bucket_count; ++i)
    buckets[i].store(0, std::memory_order_relaxed);
}

TimeSeriesStore::TimeSeriesStore(const MetricsRegistry* registry,
                                 TimeSeriesConfig config)
    : registry_(registry), config_(config) {
  SENTINEL_CHECK(registry_ != nullptr) << "time-series store needs a registry";
  SENTINEL_CHECK(config_.capacity >= 2)
      << "capacity " << config_.capacity << " cannot hold a window";
}

TimeSeriesStore::Series& TimeSeriesStore::Ensure(const std::string& name,
                                                 Kind kind,
                                                 std::size_t bucket_count,
                                                 std::uint64_t first_sample) {
  MutexLock lock(mutex_);
  auto& slot = series_[name];
  if (!slot) {
    slot = std::make_unique<Series>(kind, config_.capacity, bucket_count,
                                    first_sample);
  }
  return *slot;
}

const TimeSeriesStore::Series* TimeSeriesStore::Find(
    const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : it->second.get();
}

void TimeSeriesStore::Sample(std::int64_t now_ns) {
  const std::uint64_t s = head_.load(std::memory_order_relaxed);
  const std::size_t slot = static_cast<std::size_t>(s % config_.capacity);
  // ordering: relaxed — the release stores of times/values below carry
  // it: a reader that acquires any of them (sample s overwriting sample
  // s - capacity) also sees writing_ >= s + 1, so Recent() can tell the
  // old sample is gone.
  writing_.store(s + 1, std::memory_order_relaxed);

  registry_->VisitInstruments(
      [&](const std::string& name, const Counter& counter) {
        Series& sr = Ensure(name, Kind::kCounter, 0, s);
        sr.times[slot].store(now_ns, std::memory_order_release);
        sr.values[slot].store(static_cast<double>(counter.Value()),
                              std::memory_order_release);
      },
      [&](const std::string& name, const Gauge& gauge) {
        Series& sr = Ensure(name, Kind::kGauge, 0, s);
        sr.times[slot].store(now_ns, std::memory_order_release);
        sr.values[slot].store(gauge.Value(), std::memory_order_release);
      },
      [&](const std::string& name, const Histogram& histogram) {
        const Histogram::Snapshot snap = histogram.Read();
        Series& sr =
            Ensure(name, Kind::kHistogram, snap.buckets.size(), s);
        if (sr.bounds.empty()) {
          // Bounds are fixed per histogram; capture them once.
          sr.bounds.reserve(snap.buckets.size());
          for (const auto& [bound, cumulative] : snap.buckets)
            sr.bounds.push_back(bound);
        }
        SENTINEL_CHECK(snap.buckets.size() == sr.bucket_count)
            << name << ": bucket count changed mid-run";
        sr.times[slot].store(now_ns, std::memory_order_release);
        sr.values[slot].store(static_cast<double>(snap.count),
                              std::memory_order_release);
        sr.sums[slot].store(snap.sum, std::memory_order_relaxed);
        std::atomic<std::uint64_t>* row = &sr.buckets[slot * sr.bucket_count];
        for (std::size_t i = 0; i < sr.bucket_count; ++i)
          row[i].store(snap.buckets[i].second, std::memory_order_relaxed);
      });

  head_.store(s + 1, std::memory_order_release);
}

void TimeSeriesStore::WindowRange(const Series& series, std::size_t window,
                                  std::uint64_t* lo, std::uint64_t* hi) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  *hi = head;
  std::uint64_t low = series.first_sample;
  if (head > config_.capacity)
    low = std::max<std::uint64_t>(low, head - config_.capacity);
  if (window < head)
    low = std::max<std::uint64_t>(low, head - window);
  *lo = std::min(low, head);
}

std::vector<std::string> TimeSeriesStore::SeriesNames() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, series] : series_) names.push_back(name);
  return names;
}

std::vector<TimeSeriesStore::Point> TimeSeriesStore::Recent(
    const std::string& name, std::size_t window) const {
  const Series* sr = Find(name);
  if (sr == nullptr) return {};
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  WindowRange(*sr, window, &lo, &hi);
  std::vector<Point> out;
  out.reserve(static_cast<std::size_t>(hi - lo));
  for (std::uint64_t s = lo; s < hi; ++s) {
    const std::size_t slot = static_cast<std::size_t>(s % config_.capacity);
    out.push_back({sr->times[slot].load(std::memory_order_acquire),
                   sr->values[slot].load(std::memory_order_acquire)});
  }
  // Writing sample w - 1 overwrites sample w - 1 - capacity, so once
  // writing_ (w) has been re-read only samples from w - capacity on are
  // known intact.
  // ordering: relaxed — ordered after the acquire slot loads above.
  const std::uint64_t writing = writing_.load(std::memory_order_relaxed);
  if (writing > config_.capacity) {
    const std::uint64_t intact = writing - config_.capacity;
    const std::size_t lapped = static_cast<std::size_t>(
        std::min<std::uint64_t>(intact > lo ? intact - lo : 0, out.size()));
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(lapped));
  }
  return out;
}

TimeSeriesStore::WindowStats TimeSeriesStore::Window(
    const std::string& name, std::size_t window) const {
  WindowStats stats;
  const std::vector<Point> points = Recent(name, window);
  if (points.empty()) return stats;
  stats.samples = points.size();
  stats.first_t_ns = points.front().t_ns;
  stats.last_t_ns = points.back().t_ns;
  stats.first = points.front().value;
  stats.last = points.back().value;
  stats.min = std::numeric_limits<double>::infinity();
  stats.max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (const Point& p : points) {
    stats.min = std::min(stats.min, p.value);
    stats.max = std::max(stats.max, p.value);
    sum += p.value;
  }
  stats.mean = sum / static_cast<double>(points.size());
  stats.delta = stats.last - stats.first;
  const double elapsed_s =
      static_cast<double>(stats.last_t_ns - stats.first_t_ns) * 1e-9;
  stats.rate_per_s = elapsed_s > 0.0 ? stats.delta / elapsed_s : 0.0;
  return stats;
}

TimeSeriesStore::HistogramWindow TimeSeriesStore::HistogramStats(
    const std::string& name, std::size_t window) const {
  HistogramWindow out;
  const Series* sr = Find(name);
  if (sr == nullptr || sr->kind != Kind::kHistogram) return out;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  WindowRange(*sr, window, &lo, &hi);
  if (hi == lo) return out;
  out.samples = static_cast<std::size_t>(hi - lo);

  const std::size_t first_slot =
      static_cast<std::size_t>(lo % config_.capacity);
  const std::size_t last_slot =
      static_cast<std::size_t>((hi - 1) % config_.capacity);
  const std::atomic<std::uint64_t>* first_row =
      &sr->buckets[first_slot * sr->bucket_count];
  const std::atomic<std::uint64_t>* last_row =
      &sr->buckets[last_slot * sr->bucket_count];

  // Observations inside the window: cumulative state at the window's last
  // sample minus cumulative state at its first. A one-sample window has no
  // interior and reports zero observations.
  std::vector<std::uint64_t> deltas(sr->bucket_count, 0);
  for (std::size_t i = 0; i < sr->bucket_count; ++i) {
    const std::uint64_t a = first_row[i].load(std::memory_order_relaxed);
    const std::uint64_t b = last_row[i].load(std::memory_order_relaxed);
    deltas[i] = b >= a ? b - a : 0;
  }
  out.count = deltas.empty() ? 0 : deltas.back();
  out.sum = sr->sums[last_slot].load(std::memory_order_relaxed) -
            sr->sums[first_slot].load(std::memory_order_relaxed);
  out.mean = out.count == 0 ? 0.0 : out.sum / static_cast<double>(out.count);

  const auto percentile = [&](double q) -> double {
    if (out.count == 0) return 0.0;
    const double target = q * static_cast<double>(out.count);
    double lower = 0.0;
    for (std::size_t i = 0; i < sr->bucket_count; ++i) {
      const double upper = sr->bounds[i];
      const double cumulative = static_cast<double>(deltas[i]);
      if (cumulative >= target) {
        if (std::isinf(upper)) {
          // Observations beyond the last finite bound clamp to it.
          return lower;
        }
        const double in_bucket =
            cumulative - (i == 0 ? 0.0 : static_cast<double>(deltas[i - 1]));
        if (in_bucket <= 0.0) return upper;
        const double below = i == 0 ? 0.0 : static_cast<double>(deltas[i - 1]);
        return lower + (upper - lower) * (target - below) / in_bucket;
      }
      if (!std::isinf(upper)) lower = upper;
    }
    return lower;
  };
  out.p50 = percentile(0.50);
  out.p95 = percentile(0.95);
  out.p99 = percentile(0.99);
  return out;
}

std::string TimeSeriesStore::RenderJson(std::size_t window) const {
  std::string out = "{\n  \"window\": " + std::to_string(window) +
                    ",\n  \"samples\": " + std::to_string(samples_taken()) +
                    ",\n  \"capacity\": " + std::to_string(config_.capacity) +
                    ",\n  \"series\": {";
  bool first = true;
  for (const std::string& name : SeriesNames()) {
    const Series* sr = Find(name);
    if (sr == nullptr) continue;
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonEscaped(out, name);
    if (sr->kind == Kind::kHistogram) {
      const HistogramWindow h = HistogramStats(name, window);
      out += ": {\"kind\": \"histogram\", \"samples\": " +
             std::to_string(h.samples) +
             ", \"count\": " + std::to_string(h.count) +
             ", \"sum\": " + FormatDouble(h.sum) +
             ", \"mean\": " + FormatDouble(h.mean) +
             ", \"p50\": " + FormatDouble(h.p50) +
             ", \"p95\": " + FormatDouble(h.p95) +
             ", \"p99\": " + FormatDouble(h.p99) + "}";
    } else {
      const WindowStats w = Window(name, window);
      out += std::string(": {\"kind\": \"") +
             (sr->kind == Kind::kCounter ? "counter" : "gauge") +
             "\", \"samples\": " + std::to_string(w.samples) +
             ", \"first\": " + FormatDouble(w.first) +
             ", \"last\": " + FormatDouble(w.last) +
             ", \"min\": " + FormatDouble(w.min) +
             ", \"max\": " + FormatDouble(w.max) +
             ", \"mean\": " + FormatDouble(w.mean) +
             ", \"delta\": " + FormatDouble(w.delta) +
             ", \"rate_per_s\": " + FormatDouble(w.rate_per_s) + "}";
    }
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace sentinel::obs

// Windowed time-series store over the metrics registry: a fixed-capacity
// ring buffer per instrument, filled by a single sampler thread calling
// Sample() at its chosen cadence and read lock-free by any number of
// scrapers (the telemetry server, the alert engine, tests).
//
// Model
// - Every Sample(now_ns) visits each registered instrument once and writes
//   one slot per series: (timestamp, value) for counters/gauges, plus the
//   full cumulative bucket vector, sum and count for histograms. A global
//   sample index (head) advances with release ordering after all series
//   are written, so a reader that observes head == H can read any slot in
//   [H - capacity, H) of any series that existed by then.
// - Series are discovered on the fly: an instrument registered after the
//   store started simply records the sample index at which it first
//   appeared and reports a shorter window until it catches up.
// - Slots are std::atomic (the head fence orders publication; time and
//   value slots are stored release / loaded acquire so a reader can detect
//   being lapped), so the sampler and scrapers never contend on a lock for
//   ring data; a short mutex guards only the name -> series map.
//
// Readers derive, over the last `window` samples of a series:
// - Window(): first/last/min/max/mean, delta and per-second rate (the
//   natural reading for counters) computed from the slot timestamps;
// - HistogramStats(): the merged histogram of observations that happened
//   inside the window (last cumulative buckets minus first), with
//   p50/p95/p99 extracted by linear interpolation within the bounding
//   bucket (+Inf observations clamp to the last finite bound);
// - RenderJson(): all of the above for every series, for /timeseries.
//
// A scraper the sampler laps would read slots already holding newer
// samples; Recent() checks after copying how far the sampler has written
// and drops every sample it may have overwritten meanwhile, so a window
// holds only intact samples in order (a counter's window never goes
// down). Across series a read can still mix consecutive samples, which is
// the usual monitoring-plane contract. Tests that need exact values simply
// do not race Sample() against reads.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sentinel::obs {

struct TimeSeriesConfig {
  /// Samples retained per series. At the default 1 s cadence this is ten
  /// minutes of history per instrument.
  std::size_t capacity = 600;
};

class TimeSeriesStore {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Point {
    std::int64_t t_ns = 0;
    double value = 0.0;  // counter/gauge value; observation count for
                         // histogram series
  };

  /// Scalar statistics over the last `window` samples of one series.
  struct WindowStats {
    std::size_t samples = 0;  // 0 => series unknown or not yet sampled
    std::int64_t first_t_ns = 0;
    std::int64_t last_t_ns = 0;
    double first = 0.0;
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double delta = 0.0;       // last - first
    double rate_per_s = 0.0;  // delta / elapsed seconds, 0 if elapsed == 0
  };

  /// Merged histogram of observations recorded between the first and last
  /// sample of the window.
  struct HistogramWindow {
    std::size_t samples = 0;
    std::uint64_t count = 0;  // observations inside the window
    double sum = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  /// The store only ever reads `registry`, which must outlive it.
  explicit TimeSeriesStore(const MetricsRegistry* registry,
                           TimeSeriesConfig config = {});

  /// Takes one snapshot of every registered instrument. Single writer: at
  /// most one thread may call Sample (concurrently with any readers).
  /// Timestamps must be non-decreasing across calls.
  void Sample(std::int64_t now_ns);

  /// Total Sample() calls so far.
  [[nodiscard]] std::uint64_t samples_taken() const {
    return head_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const { return config_.capacity; }

  /// All known series names, lexicographically sorted.
  [[nodiscard]] std::vector<std::string> SeriesNames() const;

  /// The raw (timestamp, value) points of the last `window` samples,
  /// oldest first. Empty if the series is unknown.
  [[nodiscard]] std::vector<Point> Recent(const std::string& name,
                                          std::size_t window) const;

  [[nodiscard]] WindowStats Window(const std::string& name,
                                   std::size_t window) const;

  /// Zero-valued result (samples == 0) if `name` is not a histogram series.
  [[nodiscard]] HistogramWindow HistogramStats(const std::string& name,
                                               std::size_t window) const;

  /// {"window": N, "samples": H, "series": {name: {...}, ...}} with window
  /// stats for scalars and merged quantiles for histograms.
  [[nodiscard]] std::string RenderJson(std::size_t window) const;

 private:
  struct Series {
    Series(Kind kind, std::size_t capacity, std::size_t bucket_count,
           std::uint64_t first_sample);

    const Kind kind;
    /// Global sample index at which this series first appeared.
    const std::uint64_t first_sample;
    // ordering: relaxed (buckets/sums) — single-writer ring slots;
    // publication is ordered by the store's head_ release/acquire pair,
    // not per-slot edges. times/values are additionally stored release and
    // loaded acquire by Recent(), which orders its writing_ check after
    // them. See the file comment.
    std::unique_ptr<std::atomic<std::int64_t>[]> times;  // [capacity]
    std::unique_ptr<std::atomic<double>[]> values;       // [capacity]

    // Histogram series only; scalar series keep bucket_count == 0.
    const std::size_t bucket_count;
    std::vector<double> bounds;  // finite bounds + +Inf, fixed at discovery
    /// Cumulative per-bound counts, [capacity * bucket_count], slot-major.
    // ordering: relaxed — see times/values above.
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    // ordering: relaxed — see times/values above.
    std::unique_ptr<std::atomic<double>[]> sums;  // [capacity]
  };

  /// Sampler-side find-or-create; `first_sample` is the index of the
  /// in-progress sample.
  Series& Ensure(const std::string& name, Kind kind, std::size_t bucket_count,
                 std::uint64_t first_sample);

  /// Reader-side lookup; nullptr if unknown. The pointer stays valid for
  /// the store's lifetime.
  [[nodiscard]] const Series* Find(const std::string& name) const;

  /// Resolves the readable slot range [lo, hi) of global sample indices for
  /// `series` under head H, clipped to the ring capacity, the series birth
  /// and the requested window.
  void WindowRange(const Series& series, std::size_t window, std::uint64_t* lo,
                   std::uint64_t* hi) const;

  const MetricsRegistry* const registry_;
  const TimeSeriesConfig config_;

  // ordering: release on advance (after every series slot of the sample is
  // written) / acquire on read — head is the publication fence that makes
  // the relaxed ring-slot writes of sample H visible to readers that
  // observed head > H. See the file comment.
  std::atomic<std::uint64_t> head_{0};
  // ordering: relaxed (store and load) — ordered by the release stores /
  // acquire loads of the times/values slots around it. One past the
  // sample whose slots the sampler is writing or last wrote, so a reader
  // can drop the samples a write lapped while it copied them.
  std::atomic<std::uint64_t> writing_{0};

  // guards series_ (the map, not the rings)
  mutable Mutex mutex_{"obs.timeseries"};
  std::map<std::string, std::unique_ptr<Series>> series_
      SENTINEL_GUARDED_BY(mutex_);
};

}  // namespace sentinel::obs

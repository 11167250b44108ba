// Micro-batching building blocks of the always-on identification service
// (DESIGN.md "Serving path"): a pure, clock-injected flush policy and a
// bounded MAC-keyed admission queue. Neither owns a lock or reads a clock
// — the drain loop in core/identify_server.cc injects time and holds the
// one mutex — so every decision rule is unit-testable deterministically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "features/fingerprint.h"
#include "net/address.h"

namespace sentinel::core {

struct AdaptiveBatchConfig {
  /// Flush as soon as this many probes are queued (the serve kernel's
  /// amortization saturates quickly; see BENCH_serve.json's batch
  /// histogram). 1 degenerates to per-call serving.
  std::size_t batch_target = 16;
  /// No admitted probe waits in the queue longer than this before its
  /// batch is flushed.
  std::uint64_t latency_bound_ns = 2'000'000;  // 2 ms
  /// EWMA smoothing factor for the observed interarrival gap in (0, 1];
  /// higher adapts faster to rate changes.
  double ewma_alpha = 0.2;
};

/// Decides when the drain thread flushes the queue into one
/// DeviceIdentifier::IdentifyBatch call. Three rules, in order:
///   size     — the batch target is reached: flush now.
///   deadline — the oldest queued probe has waited latency_bound_ns:
///              flush now, full or not.
///   sparse   — the EWMA of observed interarrival gaps predicts the
///              remaining slots cannot fill before the oldest probe's
///              deadline: flush now instead of idling toward the bound
///              (this is what adapts the effective batch size to load —
///              bursty traffic fills big batches, a trickle is served at
///              per-call latency).
/// Otherwise: wait, and Evaluate says for how long before rechecking.
class AdaptiveBatchPolicy {
 public:
  explicit AdaptiveBatchPolicy(AdaptiveBatchConfig config = {})
      : config_(config) {}

  [[nodiscard]] const AdaptiveBatchConfig& config() const { return config_; }

  /// Folds one admission's arrival time into the interarrival EWMA.
  void OnArrival(std::uint64_t now_ns);

  enum class FlushReason { kNone, kSize, kDeadline, kSparse };
  struct Decision {
    bool flush = false;
    FlushReason reason = FlushReason::kNone;
    /// When !flush: how long the drain may sleep before re-evaluating
    /// (the oldest probe's remaining deadline, shortened when the EWMA
    /// predicts the batch fills sooner).
    std::uint64_t wait_ns = 0;
  };

  /// Flush decision for a queue of `depth` probes whose oldest was
  /// admitted at `oldest_enqueue_ns`. Pure: depends only on the
  /// arguments, the config and the EWMA state. `depth` must be > 0.
  [[nodiscard]] Decision Evaluate(std::size_t depth,
                                  std::uint64_t oldest_enqueue_ns,
                                  std::uint64_t now_ns) const;

  /// Smoothed interarrival gap; 0 until two arrivals have been observed.
  [[nodiscard]] std::uint64_t ewma_interarrival_ns() const {
    return static_cast<std::uint64_t>(ewma_interarrival_ns_);
  }

 private:
  AdaptiveBatchConfig config_;
  double ewma_interarrival_ns_ = 0.0;
  std::uint64_t last_arrival_ns_ = 0;
};

/// One admitted probe: both fingerprint forms (owned — the HTTP buffer
/// they were parsed from is gone by drain time), the device MAC it keys
/// under, and the ticket its waiting client holds.
struct QueuedProbe {
  net::MacAddress mac;
  features::Fingerprint full;
  features::FixedFingerprint fixed;
  std::uint64_t enqueue_ns = 0;
  std::uint64_t ticket = 0;
};

/// Bounded FIFO admission queue keyed by device MAC. Admission past the
/// capacity has explicit overload semantics:
///   - if an older probe for the SAME device is still queued, that probe
///     is shed (removed, its ticket reported so the waiter gets told) and
///     the newer one admitted — under sustained overload the newest
///     fingerprint per device wins, and one chatty device cannot occupy
///     more than its latest observation;
///   - otherwise the new probe is rejected (the HTTP layer turns this
///     into 429 + Retry-After).
/// Single-threaded by design; IdentifyServer serializes access.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t capacity) : capacity_(capacity) {}

  enum class AdmitAction { kAdmitted, kAdmittedAfterShed, kRejected };
  struct Admission {
    AdmitAction action = AdmitAction::kRejected;
    /// Ticket of the same-MAC probe that was shed to make room
    /// (action == kAdmittedAfterShed only).
    std::uint64_t shed_ticket = 0;
  };

  /// Admits, sheds-and-admits, or rejects `probe` (moved from only when
  /// admitted).
  Admission Push(QueuedProbe&& probe);

  /// Removes and returns up to `max_probes` probes, oldest first.
  [[nodiscard]] std::vector<QueuedProbe> PopBatch(std::size_t max_probes);

  [[nodiscard]] std::size_t depth() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Enqueue time of the oldest queued probe; nullopt when empty.
  [[nodiscard]] std::optional<std::uint64_t> oldest_enqueue_ns() const;

 private:
  std::size_t capacity_;
  std::deque<QueuedProbe> queue_;
};

}  // namespace sentinel::core

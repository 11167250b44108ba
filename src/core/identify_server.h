// The always-on identification service behind `sentinelctl serve`'s POST
// routes (DESIGN.md "Serving path"). Probes arrive over HTTP — a parsed
// fingerprint on POST /identify, raw setup-phase frames on POST /ingest —
// and are admitted into a bounded MAC-keyed queue; a single drain thread
// flushes the queue through DeviceIdentifier::IdentifyBatch under the
// adaptive micro-batching policy (core/serve_batching.h) and wakes the
// waiting connection handlers with their verdicts.
//
// Overload is explicit, never silent: past the queue's capacity an older
// probe of the same device is shed (the newest fingerprint per device
// wins) and its waiter told 429, or — when no same-device probe is queued
// — the new probe is rejected with 429 + Retry-After derived from the
// observed service rate. Verdict-grade fields of every served response
// are bit-identical to a per-call `sentinelctl identify` of the same
// fingerprint (differentially tested; see core::Provenance).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/device_identifier.h"
#include "core/serve_batching.h"
#include "features/fingerprint.h"
#include "net/address.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sentinel::core {

struct IdentifyServerConfig {
  /// Admission queue capacity; probes past it shed or get 429.
  std::size_t queue_depth = 256;
  AdaptiveBatchConfig batch;
  /// Tests: no drain thread is started; DrainNow() services the queue on
  /// the caller's thread with an injected "now".
  bool manual_drain = false;
  /// Monotonic nanosecond clock; null uses std::chrono::steady_clock.
  /// Injectable so batching/overload behaviour is testable without
  /// sleeping.
  std::function<std::uint64_t()> clock;
};

/// Lifetime counters of one server, readable at any time (stats()) and —
/// with set_metrics() — mirrored into the telemetry registry.
struct ServeStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;
  std::uint64_t probes_served = 0;
  /// Bodies rejected as malformed or mistyped (400/415) — routing 404s
  /// are counted separately below, not here.
  std::uint64_t parse_errors = 0;
  /// POSTs to a path no route claims (404).
  std::uint64_t unknown_routes = 0;
  /// Batches by flush reason (the policy's size / deadline / sparse).
  std::uint64_t flush_size = 0;
  std::uint64_t flush_deadline = 0;
  std::uint64_t flush_sparse = 0;
  /// Batch-size histogram: served batch size -> occurrences.
  std::map<std::size_t, std::uint64_t> batch_size_counts;
};

class IdentifyServer : public obs::PostRoutes {
 public:
  /// `identifier` must be trained and must outlive the server.
  explicit IdentifyServer(const DeviceIdentifier* identifier,
                          IdentifyServerConfig config = {});
  ~IdentifyServer() override;
  IdentifyServer(const IdentifyServer&) = delete;
  IdentifyServer& operator=(const IdentifyServer&) = delete;

  /// Starts the drain thread (no-op under manual_drain).
  void Start();
  /// Stops the drain thread and resolves every still-queued probe as
  /// shed so no waiter blocks forever. Idempotent; the destructor calls
  /// it.
  void Stop();

  /// Mirrors the serve counters into `registry` (attach before Start,
  /// like the identifier's own metrics): queue-depth gauge, admission /
  /// shed / rejection / batch / probe counters, batch-size and
  /// queue-wait histograms.
  void set_metrics(obs::MetricsRegistry* registry);

  // --- probe API (what the HTTP facade and the tests drive) ---

  struct Submission {
    bool admitted = false;
    /// Valid when admitted; pass to WaitProbe.
    std::uint64_t ticket = 0;
    /// When rejected: suggested client back-off.
    std::uint64_t retry_after_ms = 0;
  };
  /// Admits one probe (never blocks). Both fingerprint forms are moved
  /// in — the drain consumes them after the caller's buffers are gone.
  Submission SubmitProbe(const net::MacAddress& mac,
                         features::Fingerprint full,
                         features::FixedFingerprint fixed);

  enum class ProbeStatus {
    kServed,
    /// Shed before service: superseded by a newer same-device probe
    /// under overload, or the server stopped.
    kShed,
  };
  struct ProbeOutcome {
    ProbeStatus status = ProbeStatus::kShed;
    IdentificationResult result;
    /// Size of the batch this probe was served in (0 when shed).
    std::size_t batch_size = 0;
    /// Admission-to-drain queueing delay (0 when shed).
    std::uint64_t queue_wait_ns = 0;
  };
  /// Blocks until the ticket's probe is served or shed; consumes the
  /// ticket.
  [[nodiscard]] ProbeOutcome WaitProbe(std::uint64_t ticket);

  // --- obs::PostRoutes (the HTTP facade) ---

  /// Parses and admits one POST body. Routes: /identify with
  /// application/json `{"mac": "...", "packets": [[23 uints]...]}` or
  /// application/octet-stream (6 raw MAC octets + SFP fingerprint
  /// bytes); /ingest with a classic pcap image whose frames are split
  /// per source MAC and fingerprinted. Malformed input becomes a 400
  /// collected later — never an exception.
  [[nodiscard]] std::uint64_t Submit(const std::string& path,
                                     const std::string& content_type,
                                     std::string body) override;
  /// Blocks until every probe of the request is served/shed and renders
  /// the response; consumes the id.
  [[nodiscard]] obs::PostResponse Collect(std::uint64_t request_id) override;

  // --- introspection / test hooks ---

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const IdentifyServerConfig& config() const { return config_; }

  /// Manual-drain mode: evaluates the flush policy at `now_ns` and, when
  /// it fires, services one batch on the calling thread. Returns the
  /// number of probes served (0: no flush due yet or queue empty).
  std::size_t DrainNow(std::uint64_t now_ns);

  /// Renders the verdict-grade JSON object shared by every serving mode
  /// — `{"known":...,"type":...,"matched_types":[...],
  /// "tie_break_count":...,"dissimilarity":...}` — exposed so the
  /// differential tests and the load generator can render a per-call
  /// Identify() result through the exact same bytes.
  [[nodiscard]] static std::string RenderVerdictJson(
      const IdentificationResult& result);

 private:
  /// Verdict slot a waiter parks on; keyed by ticket in slots_.
  struct Slot {
    bool done = false;
    bool shed = false;
    IdentificationResult result;
    std::size_t batch_size = 0;
    std::uint64_t queue_wait_ns = 0;
  };

  /// One submitted probe of an HTTP request (per device for /ingest).
  struct HttpProbe {
    std::string mac;
    bool admitted = false;
    std::uint64_t ticket = 0;
    std::uint64_t retry_after_ms = 0;
  };
  /// Parsed-and-admitted state of one HTTP request between Submit and
  /// Collect.
  struct PendingHttp {
    enum class Kind { kImmediate, kIdentify, kIngest };
    Kind kind = Kind::kImmediate;
    /// Ready response (kImmediate: parse errors, 415s, immediate 429s).
    obs::PostResponse response;
    std::vector<HttpProbe> probes;
    /// /ingest provenance for the response body.
    std::size_t frames = 0;
    std::size_t devices_skipped = 0;
  };

  [[nodiscard]] std::uint64_t NowNs() const;
  /// Suggested Retry-After from current depth x observed per-probe
  /// service time (falls back to the latency bound before any batch has
  /// been measured).
  [[nodiscard]] std::uint64_t RetryAfterMsLocked() const
      SENTINEL_REQUIRES(mu_);

  void DrainLoop();
  /// Services one popped batch end to end: identify (one kernel call
  /// under Provenance::kCertifiedBounds, whatever the batch size), fill
  /// slots, wake waiters.
  void ServeBatch(std::vector<QueuedProbe> batch,
                  AdaptiveBatchPolicy::FlushReason reason);

  PendingHttp BuildIdentify(const std::string& content_type,
                            const std::string& body);
  PendingHttp BuildIngest(const std::string& content_type,
                          const std::string& body);
  /// Ready error response; counts nothing — the callers below attribute.
  static PendingHttp ImmediateResponse(int status,
                                       const std::string& message);
  /// ImmediateResponse counted as a malformed body (400/415).
  PendingHttp ImmediateError(int status, const std::string& message);
  /// Admits one parsed fingerprint and appends its HttpProbe record.
  void AdmitHttpProbe(const net::MacAddress& mac, features::Fingerprint full,
                      PendingHttp& pending);
  [[nodiscard]] obs::PostResponse RenderIdentify(PendingHttp& pending);
  [[nodiscard]] obs::PostResponse RenderIngest(PendingHttp& pending);
  /// Renders one probe's outcome into `out` (shared by both renderers).
  void AppendProbeJson(std::string& out, const HttpProbe& probe,
                       const ProbeOutcome& outcome);

  /// Metric handles resolved once in set_metrics(); all-null when
  /// detached.
  struct ServeMetrics {
    obs::Gauge* queue_depth = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* probes = nullptr;
    obs::Counter* parse_errors = nullptr;
    obs::Counter* unknown_routes = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* queue_wait_ns = nullptr;
  };

  const DeviceIdentifier* identifier_;
  IdentifyServerConfig config_;
  ServeMetrics metrics_;

  mutable sentinel::Mutex mu_{"identify_server.queue"};
  /// Drain wake-ups: new admission or stop.
  sentinel::CondVar work_cv_;
  /// Waiter wake-ups: batch served or probe shed.
  sentinel::CondVar done_cv_;
  AdmissionQueue queue_ SENTINEL_GUARDED_BY(mu_);
  AdaptiveBatchPolicy policy_ SENTINEL_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, Slot> slots_ SENTINEL_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, PendingHttp> pending_
      SENTINEL_GUARDED_BY(mu_);
  std::uint64_t next_ticket_ SENTINEL_GUARDED_BY(mu_) = 0;
  std::uint64_t next_request_ SENTINEL_GUARDED_BY(mu_) = 0;
  ServeStats stats_ SENTINEL_GUARDED_BY(mu_);
  /// EWMA of observed per-probe service time, feeding Retry-After.
  double ewma_service_ns_ SENTINEL_GUARDED_BY(mu_) = 0.0;
  bool stopping_ SENTINEL_GUARDED_BY(mu_) = false;
  bool started_ = false;
  std::thread drain_;
};

}  // namespace sentinel::core

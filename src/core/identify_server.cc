#include "core/identify_server.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "capture/trace.h"
#include "features/fingerprint_codec.h"
#include "net/byte_io.h"
#include "obs/json.h"
#include "util/json.h"

namespace sentinel::core {

namespace {

constexpr std::size_t kMacBytes = 6;
/// /ingest devices with fewer setup-phase packets than this are skipped:
/// a fingerprint that short carries no identification signal and would
/// only burn a queue slot.
constexpr std::size_t kMinIngestPackets = 4;

/// Shortest-round-trip decimal form, deterministic for a given double —
/// the serve and per-call renderers must produce identical bytes for
/// identical verdicts. The bytes are those of the first printf "%.*g"
/// precision that round-trips: std::to_chars' shortest form gives that
/// precision's lower bound (no shorter decimal round-trips), and the
/// correctly rounded form at it almost always round-trips too — the
/// loop only continues where a power-of-two boundary leaves the shortest
/// decimal on the far side of the value.
std::string FormatDouble(double value) {
  char buf[32];
  const char* const end = std::to_chars(buf, buf + sizeof(buf), value,
                                        std::chars_format::scientific)
                              .ptr;
  int precision = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++precision;
  }
  for (precision = std::max(precision, 1);; ++precision) {
    const char* const general =
        std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::general, precision)
            .ptr;
    double parsed = 0.0;
    std::from_chars(buf, general, parsed);
    if (parsed == value || precision == 17)
      return {buf, static_cast<std::size_t>(general - buf)};
  }
}

/// Validates one JSON number as an exact uint32 feature value.
bool ToFeature(const util::JsonValue& value, std::uint32_t& out) {
  if (!value.IsNumber()) return false;
  const double number = value.number;
  if (number < 0.0 || number > 4294967295.0 || number != std::floor(number))
    return false;
  out = static_cast<std::uint32_t>(number);
  return true;
}

}  // namespace

IdentifyServer::IdentifyServer(const DeviceIdentifier* identifier,
                               IdentifyServerConfig config)
    : identifier_(identifier),
      config_(std::move(config)),
      queue_(config_.queue_depth),
      policy_(config_.batch) {}

IdentifyServer::~IdentifyServer() { Stop(); }

std::uint64_t IdentifyServer::NowNs() const {
  if (config_.clock) return config_.clock();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void IdentifyServer::Start() {
  if (started_ || config_.manual_drain) return;
  started_ = true;
  drain_ = std::thread([this] { DrainLoop(); });
}

void IdentifyServer::Stop() {
  {
    sentinel::MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    work_cv_.NotifyAll();
  }
  if (drain_.joinable()) drain_.join();
  {
    sentinel::MutexLock lock(mu_);
    // Resolve every still-queued probe as shed so no waiter blocks on a
    // drain that will never run again.
    auto leftovers =
        queue_.PopBatch(std::numeric_limits<std::size_t>::max());
    for (auto& probe : leftovers) {
      auto it = slots_.find(probe.ticket);
      if (it == slots_.end()) continue;
      it->second.done = true;
      it->second.shed = true;
    }
    if (metrics_.queue_depth) metrics_.queue_depth->Set(0.0);
    done_cv_.NotifyAll();
  }
}

void IdentifyServer::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = {};
    return;
  }
  metrics_.queue_depth = &registry->GetGauge(
      "sentinel_serve_queue_depth", "Probes waiting in the admission queue");
  metrics_.admitted = &registry->GetCounter(
      "sentinel_serve_admitted_total", "Probes admitted into the queue");
  metrics_.rejected = &registry->GetCounter(
      "sentinel_serve_rejected_total",
      "Probes rejected with 429 (queue full, no same-device victim)");
  metrics_.shed = &registry->GetCounter(
      "sentinel_serve_shed_total",
      "Queued probes shed in favour of a newer same-device probe");
  metrics_.batches = &registry->GetCounter(
      "sentinel_serve_batches_total", "Batches flushed by the drain thread");
  metrics_.probes = &registry->GetCounter(
      "sentinel_serve_probes_total", "Probes served to a verdict");
  metrics_.parse_errors = &registry->GetCounter(
      "sentinel_serve_parse_errors_total",
      "POST bodies rejected as malformed (400/415)");
  metrics_.unknown_routes = &registry->GetCounter(
      "sentinel_serve_unknown_route_total",
      "POSTs to a path no route claims (404)");
  metrics_.batch_size = &registry->GetHistogram(
      "sentinel_serve_batch_size", "Probes per flushed batch",
      {1, 2, 4, 8, 16, 32, 64});
  metrics_.queue_wait_ns = &registry->GetHistogram(
      "sentinel_serve_queue_wait_ns",
      "Admission-to-drain queueing delay per served probe",
      {1e4, 1e5, 5e5, 1e6, 2e6, 5e6, 1e7, 1e8});
}

std::uint64_t IdentifyServer::RetryAfterMsLocked() const {
  const double per_probe_ns = ewma_service_ns_ > 0.0
                                  ? ewma_service_ns_
                                  : static_cast<double>(
                                        config_.batch.latency_bound_ns);
  const double backlog_ms =
      static_cast<double>(queue_.depth()) * per_probe_ns / 1e6;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(backlog_ms));
}

IdentifyServer::Submission IdentifyServer::SubmitProbe(
    const net::MacAddress& mac, features::Fingerprint full,
    features::FixedFingerprint fixed) {
  const std::uint64_t now = NowNs();
  sentinel::MutexLock lock(mu_);
  if (stopping_) return {.admitted = false, .retry_after_ms = 0};
  policy_.OnArrival(now);
  const std::uint64_t ticket = ++next_ticket_;
  auto admission = queue_.Push(QueuedProbe{.mac = mac,
                                           .full = std::move(full),
                                           .fixed = std::move(fixed),
                                           .enqueue_ns = now,
                                           .ticket = ticket});
  if (admission.action == AdmissionQueue::AdmitAction::kRejected) {
    ++stats_.rejected;
    if (metrics_.rejected) metrics_.rejected->Increment();
    return {.admitted = false, .retry_after_ms = RetryAfterMsLocked()};
  }
  if (admission.action == AdmissionQueue::AdmitAction::kAdmittedAfterShed) {
    ++stats_.shed;
    if (metrics_.shed) metrics_.shed->Increment();
    auto victim = slots_.find(admission.shed_ticket);
    if (victim != slots_.end()) {
      victim->second.done = true;
      victim->second.shed = true;
    }
    done_cv_.NotifyAll();
  }
  ++stats_.admitted;
  if (metrics_.admitted) metrics_.admitted->Increment();
  if (metrics_.queue_depth)
    metrics_.queue_depth->Set(static_cast<double>(queue_.depth()));
  slots_.emplace(ticket, Slot{});
  work_cv_.NotifyOne();
  return {.admitted = true, .ticket = ticket};
}

IdentifyServer::ProbeOutcome IdentifyServer::WaitProbe(std::uint64_t ticket) {
  sentinel::MutexLock lock(mu_);
  done_cv_.Wait(mu_, [this, ticket]() SENTINEL_REQUIRES(mu_) {
    const auto it = slots_.find(ticket);
    return it == slots_.end() || it->second.done;
  });
  const auto it = slots_.find(ticket);
  if (it == slots_.end()) return {};  // unknown ticket: report as shed
  ProbeOutcome outcome{
      .status = it->second.shed ? ProbeStatus::kShed : ProbeStatus::kServed,
      .result = std::move(it->second.result),
      .batch_size = it->second.batch_size,
      .queue_wait_ns = it->second.queue_wait_ns};
  slots_.erase(it);
  return outcome;
}

void IdentifyServer::DrainLoop() {
  for (;;) {
    std::vector<QueuedProbe> batch;
    AdaptiveBatchPolicy::FlushReason reason =
        AdaptiveBatchPolicy::FlushReason::kNone;
    {
      sentinel::MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(mu_);
      if (stopping_) return;
      const auto decision = policy_.Evaluate(
          queue_.depth(), queue_.oldest_enqueue_ns().value(), NowNs());
      if (!decision.flush) {
        // Sleep toward the deadline (or the predicted fill time); new
        // admissions notify work_cv_, so a size flush is re-evaluated
        // immediately rather than after the timeout.
        work_cv_.WaitFor(
            mu_, std::chrono::nanoseconds(decision.wait_ns),
            [this]() SENTINEL_REQUIRES(mu_) {
              return stopping_ ||
                     queue_.depth() >= policy_.config().batch_target;
            });
        continue;
      }
      batch = queue_.PopBatch(policy_.config().batch_target);
      reason = decision.reason;
      if (metrics_.queue_depth)
        metrics_.queue_depth->Set(static_cast<double>(queue_.depth()));
    }
    ServeBatch(std::move(batch), reason);
  }
}

std::size_t IdentifyServer::DrainNow(std::uint64_t now_ns) {
  std::vector<QueuedProbe> batch;
  AdaptiveBatchPolicy::FlushReason reason =
      AdaptiveBatchPolicy::FlushReason::kNone;
  {
    sentinel::MutexLock lock(mu_);
    if (queue_.empty()) return 0;
    const auto decision = policy_.Evaluate(
        queue_.depth(), queue_.oldest_enqueue_ns().value(), now_ns);
    if (!decision.flush) return 0;
    batch = queue_.PopBatch(policy_.config().batch_target);
    reason = decision.reason;
    if (metrics_.queue_depth)
      metrics_.queue_depth->Set(static_cast<double>(queue_.depth()));
  }
  const std::size_t served = batch.size();
  ServeBatch(std::move(batch), reason);
  return served;
}

void IdentifyServer::ServeBatch(std::vector<QueuedProbe> batch,
                                AdaptiveBatchPolicy::FlushReason reason) {
  if (batch.empty()) return;
  const std::uint64_t serve_start = NowNs();
  // Only verdicts are served, so the bank scan may stop each classifier
  // as soon as its verdict is certain.
  std::vector<DeviceIdentifier::FingerprintRef> refs;
  refs.reserve(batch.size());
  for (const auto& probe : batch)
    refs.push_back({.full = &probe.full, .fixed = &probe.fixed});
  std::vector<IdentificationResult> results =
      identifier_->IdentifyBatch(refs, Provenance::kCertifiedBounds);
  const std::uint64_t serve_end = NowNs();

  sentinel::MutexLock lock(mu_);
  const double per_probe_ns = static_cast<double>(serve_end - serve_start) /
                              static_cast<double>(batch.size());
  ewma_service_ns_ = ewma_service_ns_ == 0.0
                         ? per_probe_ns
                         : 0.3 * per_probe_ns + 0.7 * ewma_service_ns_;
  ++stats_.batches;
  stats_.probes_served += batch.size();
  ++stats_.batch_size_counts[batch.size()];
  switch (reason) {
    case AdaptiveBatchPolicy::FlushReason::kSize: ++stats_.flush_size; break;
    case AdaptiveBatchPolicy::FlushReason::kDeadline:
      ++stats_.flush_deadline;
      break;
    case AdaptiveBatchPolicy::FlushReason::kSparse:
      ++stats_.flush_sparse;
      break;
    case AdaptiveBatchPolicy::FlushReason::kNone: break;
  }
  if (metrics_.batches) metrics_.batches->Increment();
  if (metrics_.probes) metrics_.probes->Increment(batch.size());
  if (metrics_.batch_size)
    metrics_.batch_size->Observe(static_cast<double>(batch.size()));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto it = slots_.find(batch[i].ticket);
    if (it == slots_.end()) continue;  // waiter gave up (server stopping)
    it->second.done = true;
    it->second.result = std::move(results[i]);
    it->second.batch_size = batch.size();
    it->second.queue_wait_ns = serve_start >= batch[i].enqueue_ns
                                   ? serve_start - batch[i].enqueue_ns
                                   : 0;
    if (metrics_.queue_wait_ns)
      metrics_.queue_wait_ns->Observe(
          static_cast<double>(it->second.queue_wait_ns));
  }
  done_cv_.NotifyAll();
}

// --- HTTP facade ---

std::uint64_t IdentifyServer::Submit(const std::string& path,
                                     const std::string& content_type,
                                     std::string body) {
  PendingHttp pending;
  // Submit never throws: a hostile body whose parse escapes the typed
  // error paths still becomes a 400 collected later, never an exception
  // unwinding into the connection-handler thread.
  try {
    if (path == "/identify") {
      pending = BuildIdentify(content_type, body);
    } else if (path == "/ingest") {
      pending = BuildIngest(content_type, body);
    } else {
      {
        sentinel::MutexLock lock(mu_);
        ++stats_.unknown_routes;
      }
      if (metrics_.unknown_routes) metrics_.unknown_routes->Increment();
      pending = ImmediateResponse(404, "no such POST route");
    }
  } catch (const std::exception& error) {
    pending =
        ImmediateError(400, std::string("malformed body: ") + error.what());
  } catch (...) {
    pending = ImmediateError(400, "malformed body");
  }
  sentinel::MutexLock lock(mu_);
  const std::uint64_t id = ++next_request_;
  pending_.emplace(id, std::move(pending));
  return id;
}

obs::PostResponse IdentifyServer::Collect(std::uint64_t request_id) {
  PendingHttp pending;
  {
    sentinel::MutexLock lock(mu_);
    auto it = pending_.find(request_id);
    if (it == pending_.end())
      return {.status = 500, .body = "{\"error\":\"unknown request id\"}\n"};
    pending = std::move(it->second);
    pending_.erase(it);
  }
  switch (pending.kind) {
    case PendingHttp::Kind::kImmediate:
      return std::move(pending.response);
    case PendingHttp::Kind::kIdentify:
      return RenderIdentify(pending);
    case PendingHttp::Kind::kIngest:
      return RenderIngest(pending);
  }
  return {.status = 500, .body = "{\"error\":\"unreachable\"}\n"};
}

IdentifyServer::PendingHttp IdentifyServer::ImmediateResponse(
    int status, const std::string& message) {
  PendingHttp pending;
  pending.kind = PendingHttp::Kind::kImmediate;
  pending.response.status = status;
  pending.response.body = "{\"error\":";
  obs::AppendJsonEscaped(pending.response.body, message);
  pending.response.body += "}\n";
  return pending;
}

IdentifyServer::PendingHttp IdentifyServer::ImmediateError(
    int status, const std::string& message) {
  {
    sentinel::MutexLock lock(mu_);
    ++stats_.parse_errors;
  }
  if (metrics_.parse_errors) metrics_.parse_errors->Increment();
  return ImmediateResponse(status, message);
}

void IdentifyServer::AdmitHttpProbe(const net::MacAddress& mac,
                                    features::Fingerprint full,
                                    PendingHttp& pending) {
  auto fixed = features::FixedFingerprint::FromFingerprint(full);
  auto submission = SubmitProbe(mac, std::move(full), std::move(fixed));
  pending.probes.push_back(HttpProbe{.mac = mac.ToString(),
                                     .admitted = submission.admitted,
                                     .ticket = submission.ticket,
                                     .retry_after_ms =
                                         submission.retry_after_ms});
}

IdentifyServer::PendingHttp IdentifyServer::BuildIdentify(
    const std::string& content_type, const std::string& body) {
  net::MacAddress mac;
  features::Fingerprint full;
  if (content_type == "application/octet-stream") {
    if (body.size() <= kMacBytes)
      return ImmediateError(400, "binary probe shorter than MAC + header");
    std::array<std::uint8_t, kMacBytes> octets{};
    for (std::size_t i = 0; i < kMacBytes; ++i)
      octets[i] = static_cast<std::uint8_t>(body[i]);
    mac = net::MacAddress(octets);
    const auto* bytes =
        reinterpret_cast<const std::uint8_t*>(body.data()) + kMacBytes;
    try {
      full = features::ParseFingerprint(
          std::span<const std::uint8_t>(bytes, body.size() - kMacBytes));
    } catch (const std::exception& error) {
      // Wider than CodecError on purpose: whatever a hostile byte string
      // provokes, Submit's never-throws contract turns it into a 400.
      return ImmediateError(400, std::string("bad fingerprint bytes: ") +
                                     error.what());
    }
  } else if (content_type == "application/json") {
    const auto document = util::ParseJson(body);
    if (!document || !document->IsObject())
      return ImmediateError(400, "body is not a JSON object");
    const auto* mac_value = document->Find("mac");
    if (mac_value == nullptr || !mac_value->IsString())
      return ImmediateError(400, "missing string field \"mac\"");
    const auto parsed_mac = net::MacAddress::Parse(mac_value->string);
    if (!parsed_mac) return ImmediateError(400, "malformed MAC address");
    mac = *parsed_mac;
    const auto* packets = document->Find("packets");
    if (packets == nullptr || !packets->IsArray())
      return ImmediateError(400, "missing array field \"packets\"");
    std::vector<features::PacketFeatureVector> vectors;
    vectors.reserve(packets->items.size());
    for (const auto& packet : packets->items) {
      if (!packet.IsArray() ||
          packet.items.size() != features::kFeatureCount)
        return ImmediateError(
            400, "each packet must be an array of 23 feature values");
      features::PacketFeatureVector vector{};
      for (std::size_t i = 0; i < features::kFeatureCount; ++i)
        if (!ToFeature(packet.items[i], vector[i]))
          return ImmediateError(
              400, "feature values must be integers in [0, 2^32)");
      vectors.push_back(vector);
    }
    full = features::Fingerprint::FromPacketVectors(vectors);
  } else {
    return ImmediateError(415, "unsupported media type for /identify");
  }
  if (full.empty()) return ImmediateError(400, "empty fingerprint");

  PendingHttp pending;
  pending.kind = PendingHttp::Kind::kIdentify;
  AdmitHttpProbe(mac, std::move(full), pending);
  return pending;
}

IdentifyServer::PendingHttp IdentifyServer::BuildIngest(
    const std::string& content_type, const std::string& body) {
  if (content_type != "application/octet-stream" &&
      content_type != "application/vnd.tcpdump.pcap")
    return ImmediateError(415, "unsupported media type for /ingest");
  capture::TraceError error;
  const auto trace = capture::Trace::FromPcap(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(body.data()), body.size()),
      &error);
  if (!trace)
    return ImmediateError(400, "malformed pcap: " + error.ToString());

  PendingHttp pending;
  pending.kind = PendingHttp::Kind::kIngest;
  pending.frames = trace->size();
  const auto by_device = capture::SplitBySourceMac(trace->Parse());
  for (const auto& [mac, packets] : by_device) {
    if (packets.size() < kMinIngestPackets) {
      ++pending.devices_skipped;
      continue;
    }
    auto full = features::Fingerprint::FromPackets(packets);
    if (full.empty()) {
      ++pending.devices_skipped;
      continue;
    }
    AdmitHttpProbe(mac, std::move(full), pending);
  }
  return pending;
}

std::string IdentifyServer::RenderVerdictJson(
    const IdentificationResult& result) {
  std::string out = "{\"known\":";
  out += result.IsKnown() ? "true" : "false";
  out += ",\"type\":";
  out += result.type ? std::to_string(*result.type) : "null";
  out += ",\"matched_types\":[";
  for (std::size_t i = 0; i < result.matched_types.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(result.matched_types[i]);
  }
  out += "],\"tie_break_count\":";
  out += std::to_string(result.tie_break_count);
  out += ",\"dissimilarity\":";
  // The winner's score, when discrimination ran: the one dissimilarity
  // every Provenance and IdentifyReference agree on bit for bit.
  std::string winner_score = "null";
  if (result.type &&
      result.dissimilarity_scores.size() == result.matched_types.size()) {
    for (std::size_t i = 0; i < result.matched_types.size(); ++i) {
      if (result.matched_types[i] == *result.type) {
        winner_score = FormatDouble(result.dissimilarity_scores[i]);
        break;
      }
    }
  }
  out += winner_score;
  out += '}';
  return out;
}

void IdentifyServer::AppendProbeJson(std::string& out, const HttpProbe& probe,
                                     const ProbeOutcome& outcome) {
  out += "{\"mac\":";
  obs::AppendJsonEscaped(out, probe.mac);
  if (!probe.admitted) {
    out += ",\"status\":\"rejected\",\"retry_after_ms\":";
    out += std::to_string(probe.retry_after_ms);
    out += '}';
    return;
  }
  if (outcome.status == ProbeStatus::kShed) {
    out += ",\"status\":\"superseded\"}";
    return;
  }
  out += ",\"status\":\"served\",\"verdict\":";
  out += RenderVerdictJson(outcome.result);
  out += ",\"batch_size\":";
  out += std::to_string(outcome.batch_size);
  out += ",\"queue_wait_ns\":";
  out += std::to_string(outcome.queue_wait_ns);
  out += '}';
}

obs::PostResponse IdentifyServer::RenderIdentify(PendingHttp& pending) {
  const HttpProbe& probe = pending.probes.front();
  obs::PostResponse response;
  if (!probe.admitted) {
    response.status = 429;
    response.retry_after_ms = probe.retry_after_ms;
    response.body = "{\"error\":\"overloaded\",\"retry_after_ms\":" +
                    std::to_string(probe.retry_after_ms) + "}\n";
    return response;
  }
  const ProbeOutcome outcome = WaitProbe(probe.ticket);
  if (outcome.status == ProbeStatus::kShed) {
    response.status = 429;
    response.body =
        "{\"error\":\"superseded\",\"detail\":"
        "\"a newer probe for this device replaced this one\"}\n";
    return response;
  }
  AppendProbeJson(response.body, probe, outcome);
  response.body += '\n';
  return response;
}

obs::PostResponse IdentifyServer::RenderIngest(PendingHttp& pending) {
  obs::PostResponse response;
  response.body = "{\"frames\":" + std::to_string(pending.frames) +
                  ",\"devices_skipped\":" +
                  std::to_string(pending.devices_skipped) + ",\"devices\":[";
  bool first = true;
  for (const HttpProbe& probe : pending.probes) {
    ProbeOutcome outcome;
    if (probe.admitted) outcome = WaitProbe(probe.ticket);
    if (!first) response.body += ',';
    first = false;
    AppendProbeJson(response.body, probe, outcome);
  }
  response.body += "]}\n";
  return response;
}

ServeStats IdentifyServer::stats() const {
  sentinel::MutexLock lock(mu_);
  return stats_;
}

std::size_t IdentifyServer::queue_depth() const {
  sentinel::MutexLock lock(mu_);
  return queue_.depth();
}

}  // namespace sentinel::core

// IdentifyServer tests: batch formation under an injected clock, the
// differential guarantee (served verdicts bit-identical to per-call
// Identify, down to the rendered JSON bytes), explicit overload
// semantics (reject-with-Retry-After and shed-oldest-per-MAC), and the
// HTTP facade's parsing of all three probe formats.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/identify_server.h"
#include "devices/simulator.h"
#include "features/fingerprint_codec.h"
#include "net/pcap.h"
#include "obs/metrics.h"

namespace sentinel::core {
namespace {

constexpr std::uint64_t kMs = 1'000'000;

/// One identifier trained on a 6-type bank, shared across tests (training
/// dominates test runtime; the server never mutates it).
const DeviceIdentifier& SharedIdentifier() {
  static const DeviceIdentifier* identifier = [] {
    const auto dataset = devices::GenerateFingerprintDataset(4, 2026);
    std::vector<LabelledFingerprint> examples;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      if (dataset.labels[i] >= 6) continue;
      examples.push_back(LabelledFingerprint{
          &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
    }
    auto* trained = new DeviceIdentifier();
    trained->Train(examples);
    return trained;
  }();
  return *identifier;
}

const devices::FingerprintDataset& Probes() {
  static const auto* probes =
      new devices::FingerprintDataset(devices::GenerateFingerprintDataset(
          /*n_per_type=*/1, /*seed=*/777));
  return *probes;
}

net::MacAddress Mac(std::uint8_t last) {
  return net::MacAddress(std::array<std::uint8_t, 6>{0x02, 0, 0, 0, 0, last});
}

/// Manual-drain server with a test-owned clock.
struct ManualServer {
  std::uint64_t now_ns = 0;
  IdentifyServer server;

  explicit ManualServer(IdentifyServerConfig config = {})
      : server(&SharedIdentifier(), [&config, this] {
          config.manual_drain = true;
          config.clock = [this] { return now_ns; };
          return std::move(config);
        }()) {}
};

TEST(IdentifyServer, SizeTargetFormsOneBatchAndVerdictsMatchPerCall) {
  ManualServer m({.queue_depth = 64, .batch = {.batch_target = 8}});
  const auto& probes = Probes();
  std::vector<std::uint64_t> tickets;
  for (std::size_t i = 0; i < 8; ++i) {
    m.now_ns += 10'000;
    const auto submission = m.server.SubmitProbe(
        Mac(static_cast<std::uint8_t>(i)), probes.fingerprints[i],
        probes.fixed[i]);
    ASSERT_TRUE(submission.admitted);
    tickets.push_back(submission.ticket);
  }
  EXPECT_EQ(m.server.DrainNow(m.now_ns), 8u);  // size flush, full batch
  for (std::size_t i = 0; i < 8; ++i) {
    const auto outcome = m.server.WaitProbe(tickets[i]);
    ASSERT_EQ(outcome.status, IdentifyServer::ProbeStatus::kServed);
    EXPECT_EQ(outcome.batch_size, 8u);
    const auto per_call =
        SharedIdentifier().Identify(probes.fingerprints[i], probes.fixed[i]);
    EXPECT_EQ(outcome.result.type, per_call.type);
    EXPECT_EQ(outcome.result.matched_types, per_call.matched_types);
    EXPECT_EQ(outcome.result.tie_break_count, per_call.tie_break_count);
    // The rendered verdict JSON — what a client actually receives — must
    // be byte-identical to the per-call path's rendering.
    EXPECT_EQ(IdentifyServer::RenderVerdictJson(outcome.result),
              IdentifyServer::RenderVerdictJson(per_call));
  }
  const auto stats = m.server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.flush_size, 1u);
  EXPECT_EQ(stats.probes_served, 8u);
  EXPECT_EQ(stats.batch_size_counts.at(8), 1u);
}

TEST(IdentifyServer, BatchTargetOneServesThroughTheSameKernel) {
  ManualServer m({.queue_depth = 64, .batch = {.batch_target = 1}});
  const auto& probes = Probes();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    m.now_ns += 10'000;
    const auto submission = m.server.SubmitProbe(
        Mac(static_cast<std::uint8_t>(i)), probes.fingerprints[i],
        probes.fixed[i]);
    ASSERT_TRUE(submission.admitted);
    EXPECT_EQ(m.server.DrainNow(m.now_ns), 1u);
    const auto outcome = m.server.WaitProbe(submission.ticket);
    ASSERT_EQ(outcome.status, IdentifyServer::ProbeStatus::kServed);
    const auto per_call =
        SharedIdentifier().Identify(probes.fingerprints[i], probes.fixed[i]);
    EXPECT_EQ(IdentifyServer::RenderVerdictJson(outcome.result),
              IdentifyServer::RenderVerdictJson(per_call));
    // Served batches of one still time their stages.
    EXPECT_GT(outcome.result.classification_time.count(), 0);
  }
}

/// The shortest-round-trip search the verdict renderer used before it
/// switched to std::to_chars, kept as the byte-level oracle.
std::string SearchShortestRoundTrip(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[32];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, value);
    double parsed = 0.0;
    if (std::sscanf(candidate, "%lf", &parsed) == 1 && parsed == value)
      return candidate;
  }
  return buf;
}

/// The "dissimilarity" bytes RenderVerdictJson emits for a known verdict
/// whose winning score is `value`.
std::string RenderedScore(double value) {
  IdentificationResult result;
  result.type = 3;
  result.matched_types = {3};
  result.dissimilarity_scores = {value};
  const std::string json = IdentifyServer::RenderVerdictJson(result);
  const std::string key = "\"dissimilarity\":";
  const auto at = json.find(key);
  if (at == std::string::npos) return "<missing>";
  return json.substr(at + key.size(), json.size() - at - key.size() - 1);
}

TEST(RenderVerdictJson, DissimilarityBytesMatchShortestRoundTripSearch) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                2.0,
                                5.0,
                                10.0,
                                100.0,
                                123456789.0,
                                1e16,
                                1e17,
                                1e21,
                                1e-4,
                                9.9999e-5,
                                1e-5,
                                3.2e-7,
                                1.5e-300,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                0.1,
                                1.0 / 3.0,
                                2.0 / 3.0};
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> score(0.0, 5.0);
  std::uniform_int_distribution<int> tenths(0, 50);
  for (int i = 0; i < 6000; ++i) values.push_back(score(rng));
  // Sums of normalized distances with few distinct denominators: the
  // values real tie-breaks produce.
  for (int i = 0; i < 2000; ++i) {
    double sum = 0.0;
    for (int k = 0; k < 5; ++k) sum += tenths(rng) / 50.0;
    values.push_back(sum);
  }
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) values.push_back(value);
  }
  // Every winning dissimilarity a catalog probe pool produces.
  const auto pool = devices::GenerateFingerprintDataset(3, 4242);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto result =
        SharedIdentifier().Identify(pool.fingerprints[i], pool.fixed[i]);
    for (const double s : result.dissimilarity_scores) values.push_back(s);
  }
  ASSERT_GE(values.size(), 10000u);
  for (const double value : values)
    ASSERT_EQ(RenderedScore(value), SearchShortestRoundTrip(value)) << value;
}

TEST(IdentifyServer, DeadlineFlushServesAPartialBatch) {
  ManualServer m({.queue_depth = 64,
                  .batch = {.batch_target = 16, .latency_bound_ns = 2 * kMs}});
  const auto& probes = Probes();
  m.now_ns = 1000;
  const auto submission =
      m.server.SubmitProbe(Mac(1), probes.fingerprints[0], probes.fixed[0]);
  ASSERT_TRUE(submission.admitted);
  // Inside the latency bound: the drain holds out for more probes.
  EXPECT_EQ(m.server.DrainNow(m.now_ns + kMs), 0u);
  // Past the bound: the lone probe is served rather than waiting forever.
  m.now_ns += 2 * kMs;
  EXPECT_EQ(m.server.DrainNow(m.now_ns), 1u);
  const auto outcome = m.server.WaitProbe(submission.ticket);
  EXPECT_EQ(outcome.status, IdentifyServer::ProbeStatus::kServed);
  EXPECT_EQ(outcome.batch_size, 1u);
  EXPECT_GE(outcome.queue_wait_ns, 2 * kMs);
  EXPECT_EQ(m.server.stats().flush_deadline, 1u);
}

TEST(IdentifyServer, OverloadRejectsWithRetryAfter) {
  ManualServer m({.queue_depth = 2, .batch = {.batch_target = 16}});
  const auto& probes = Probes();
  ASSERT_TRUE(
      m.server.SubmitProbe(Mac(1), probes.fingerprints[0], probes.fixed[0])
          .admitted);
  ASSERT_TRUE(
      m.server.SubmitProbe(Mac(2), probes.fingerprints[1], probes.fixed[1])
          .admitted);
  // Queue full, no same-MAC victim: explicit rejection with back-off.
  const auto rejected =
      m.server.SubmitProbe(Mac(3), probes.fingerprints[2], probes.fixed[2]);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_GE(rejected.retry_after_ms, 1u);
  const auto stats = m.server.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(m.server.queue_depth(), 2u);
}

TEST(IdentifyServer, OverloadShedsOldestProbeOfSameDevice) {
  ManualServer m({.queue_depth = 2, .batch = {.batch_target = 2}});
  const auto& probes = Probes();
  const auto first =
      m.server.SubmitProbe(Mac(1), probes.fingerprints[0], probes.fixed[0]);
  ASSERT_TRUE(
      m.server.SubmitProbe(Mac(2), probes.fingerprints[1], probes.fixed[1])
          .admitted);
  // Same device again on a full queue: the stale probe is shed, the
  // fresh one admitted.
  const auto fresh =
      m.server.SubmitProbe(Mac(1), probes.fingerprints[2], probes.fixed[2]);
  ASSERT_TRUE(fresh.admitted);
  const auto shed_outcome = m.server.WaitProbe(first.ticket);
  EXPECT_EQ(shed_outcome.status, IdentifyServer::ProbeStatus::kShed);
  EXPECT_EQ(m.server.DrainNow(m.now_ns), 2u);
  EXPECT_EQ(m.server.WaitProbe(fresh.ticket).status,
            IdentifyServer::ProbeStatus::kServed);
  EXPECT_EQ(m.server.stats().shed, 1u);
}

TEST(IdentifyServer, StopResolvesQueuedProbesAsShed) {
  ManualServer m({.queue_depth = 8, .batch = {.batch_target = 8}});
  const auto& probes = Probes();
  const auto submission =
      m.server.SubmitProbe(Mac(1), probes.fingerprints[0], probes.fixed[0]);
  ASSERT_TRUE(submission.admitted);
  m.server.Stop();
  EXPECT_EQ(m.server.WaitProbe(submission.ticket).status,
            IdentifyServer::ProbeStatus::kShed);
  // A post-stop submission is turned away, not silently queued.
  EXPECT_FALSE(
      m.server.SubmitProbe(Mac(2), probes.fingerprints[1], probes.fixed[1])
          .admitted);
}

TEST(IdentifyServer, MirrorsCountersIntoMetricsRegistry) {
  obs::MetricsRegistry registry;
  ManualServer m({.queue_depth = 8, .batch = {.batch_target = 2}});
  m.server.set_metrics(&registry);
  const auto& probes = Probes();
  ASSERT_TRUE(
      m.server.SubmitProbe(Mac(1), probes.fingerprints[0], probes.fixed[0])
          .admitted);
  ASSERT_TRUE(
      m.server.SubmitProbe(Mac(2), probes.fingerprints[1], probes.fixed[1])
          .admitted);
  EXPECT_EQ(m.server.DrainNow(m.now_ns), 2u);
  const std::string exposition = registry.RenderPrometheus();
  EXPECT_NE(exposition.find("sentinel_serve_admitted_total 2"),
            std::string::npos);
  EXPECT_NE(exposition.find("sentinel_serve_batches_total 1"),
            std::string::npos);
  EXPECT_NE(exposition.find("sentinel_serve_queue_depth 0"),
            std::string::npos);
  EXPECT_NE(exposition.find("sentinel_serve_batch_size"), std::string::npos);
}

// --- HTTP facade (real drain thread; per-request formats) ---

std::string ProbeJson(const features::Fingerprint& fingerprint,
                      const std::string& mac) {
  std::string body = "{\"mac\":\"" + mac + "\",\"packets\":[";
  for (std::size_t p = 0; p < fingerprint.packets().size(); ++p) {
    if (p > 0) body += ',';
    body += '[';
    for (std::size_t f = 0; f < features::kFeatureCount; ++f) {
      if (f > 0) body += ',';
      body += std::to_string(fingerprint.packets()[p][f]);
    }
    body += ']';
  }
  body += "]}";
  return body;
}

std::string ProbeBinary(const features::Fingerprint& fingerprint,
                        const net::MacAddress& mac) {
  std::string body(reinterpret_cast<const char*>(mac.octets().data()), 6);
  const auto bytes = features::SerializeFingerprint(fingerprint);
  body.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return body;
}

TEST(IdentifyServerHttp, JsonAndBinaryProbesServeTheSameVerdictBytes) {
  IdentifyServer server(
      &SharedIdentifier(),
      {.queue_depth = 64, .batch = {.batch_target = 4,
                                    .latency_bound_ns = 1 * kMs}});
  server.Start();
  const auto& probes = Probes();
  const auto& fingerprint = probes.fingerprints[0];
  const auto expected = "\"verdict\":" + IdentifyServer::RenderVerdictJson(
                                             SharedIdentifier().Identify(
                                                 fingerprint, probes.fixed[0]));

  const auto json_id = server.Submit("/identify", "application/json",
                                     ProbeJson(fingerprint, "02:00:00:00:00:01"));
  const auto json_response = server.Collect(json_id);
  EXPECT_EQ(json_response.status, 200);
  EXPECT_NE(json_response.body.find("\"status\":\"served\""),
            std::string::npos);
  EXPECT_NE(json_response.body.find(expected), std::string::npos);

  const auto binary_id = server.Submit("/identify", "application/octet-stream",
                                       ProbeBinary(fingerprint, Mac(1)));
  const auto binary_response = server.Collect(binary_id);
  EXPECT_EQ(binary_response.status, 200);
  EXPECT_NE(binary_response.body.find(expected), std::string::npos);
  server.Stop();
}

TEST(IdentifyServerHttp, IngestSplitsAPcapPerDevice) {
  IdentifyServer server(
      &SharedIdentifier(),
      {.queue_depth = 64, .batch = {.batch_target = 4,
                                    .latency_bound_ns = 1 * kMs}});
  server.Start();
  devices::DeviceSimulator simulator(7);
  const auto episode = simulator.RunSetupEpisode(0);
  const auto pcap = net::EncodePcap(episode.trace.frames());
  std::string body(reinterpret_cast<const char*>(pcap.data()), pcap.size());
  const auto id =
      server.Submit("/ingest", "application/octet-stream", std::move(body));
  const auto response = server.Collect(id);
  EXPECT_EQ(response.status, 200);
  // The setup episode's device must be among the fingerprinted MACs.
  EXPECT_NE(response.body.find(episode.device_mac.ToString()),
            std::string::npos);
  EXPECT_NE(response.body.find("\"status\":\"served\""), std::string::npos);
  server.Stop();
}

TEST(IdentifyServerHttp, MalformedBodiesAre400WithoutExceptions) {
  IdentifyServer server(&SharedIdentifier(), {.queue_depth = 8});
  server.Start();
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"application/json", "not json"},
      {"application/json", "{\"mac\":\"nope\",\"packets\":[]}"},
      {"application/json", "{\"packets\":[]}"},
      {"application/json",
       "{\"mac\":\"02:00:00:00:00:01\",\"packets\":[[1,2]]}"},
      {"application/octet-stream", "tooshort"},
      {"application/octet-stream", std::string(6, '\0') + "garbage"},
  };
  for (const auto& [content_type, body] : bad) {
    const auto id = server.Submit("/identify", content_type,
                                  std::string(body));
    EXPECT_EQ(server.Collect(id).status, 400) << body;
  }
  // Wrong media type for the route and unknown routes.
  EXPECT_EQ(server.Collect(server.Submit("/identify", "text/plain", "x"))
                .status,
            415);
  EXPECT_EQ(
      server.Collect(server.Submit("/ingest", "application/json", "{}"))
          .status,
      415);
  EXPECT_EQ(server.Collect(server.Submit("/ingest", "application/octet-stream",
                                         "not a pcap"))
                .status,
            400);
  EXPECT_EQ(server.Collect(server.Submit("/elsewhere", "application/json",
                                         "{}"))
                .status,
            404);
  // The routing 404 is not a parse error — it has its own counter.
  EXPECT_EQ(server.stats().parse_errors, 9u);
  EXPECT_EQ(server.stats().unknown_routes, 1u);
  server.Stop();
}

TEST(IdentifyServerHttp, FullQueueYields429WithRetryAfter) {
  // Manual drain: nothing is served, so the second distinct-MAC probe
  // deterministically finds the queue full.
  ManualServer m({.queue_depth = 1, .batch = {.batch_target = 8}});
  const auto& probes = Probes();
  const auto first_id =
      m.server.Submit("/identify", "application/json",
                      ProbeJson(probes.fingerprints[0], "02:00:00:00:00:01"));
  const auto second_id =
      m.server.Submit("/identify", "application/json",
                      ProbeJson(probes.fingerprints[1], "02:00:00:00:00:02"));
  const auto rejected = m.server.Collect(second_id);
  EXPECT_EQ(rejected.status, 429);
  EXPECT_GE(rejected.retry_after_ms, 1u);
  EXPECT_NE(rejected.body.find("overloaded"), std::string::npos);
  // Serve the first probe so its Collect returns.
  m.now_ns += 10 * kMs;
  EXPECT_EQ(m.server.DrainNow(m.now_ns), 1u);
  EXPECT_EQ(m.server.Collect(first_id).status, 200);
}

}  // namespace
}  // namespace sentinel::core

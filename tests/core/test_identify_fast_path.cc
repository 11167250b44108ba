// Differential tests for the identification kernel (IdentifyBatch, with
// Identify as a batch of one): under Provenance::kExact it must match the
// IdentifyReference oracle on every exact field, kCertifiedBounds must
// serve byte-identical verdicts, batching and thread count must not move
// any field, and compilation must never perturb the serialized bundle.
#include <gtest/gtest.h>

#include <vector>

#include "core/device_identifier.h"
#include "core/identify_server.h"
#include "devices/simulator.h"
#include "net/byte_io.h"
#include "util/thread_pool.h"

namespace sentinel {
namespace {

using core::Provenance;

std::vector<core::LabelledFingerprint> ToExamples(
    const devices::FingerprintDataset& dataset) {
  std::vector<core::LabelledFingerprint> examples;
  examples.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    examples.push_back(core::LabelledFingerprint{
        &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
  }
  return examples;
}

std::vector<core::DeviceIdentifier::FingerprintRef> ToRefs(
    const devices::FingerprintDataset& dataset) {
  std::vector<core::DeviceIdentifier::FingerprintRef> refs;
  refs.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i)
    refs.push_back({&dataset.fingerprints[i], &dataset.fixed[i]});
  return refs;
}

std::vector<std::uint8_t> SaveBank(const core::DeviceIdentifier& identifier) {
  net::ByteWriter w;
  identifier.Save(w);
  const auto bytes = w.bytes();
  return {bytes.begin(), bytes.end()};
}

core::DeviceIdentifier TrainedIdentifier(
    const devices::FingerprintDataset& dataset) {
  core::DeviceIdentifier identifier;
  identifier.Train(ToExamples(dataset));
  return identifier;
}

// Everything kExact promises bit-identical to the reference: the verdict,
// the candidate set, the full bank provenance, the tie-break coins and the
// winner's score. Losing candidates may record a certified lower bound
// instead of finishing, so they (and edit_distance_count) compare by <=.
void ExpectExactMatchesReference(const core::IdentificationResult& kernel,
                                 const core::IdentificationResult& reference) {
  EXPECT_EQ(kernel.type, reference.type);
  EXPECT_EQ(kernel.matched_types, reference.matched_types);
  EXPECT_EQ(kernel.bank_labels, reference.bank_labels);
  EXPECT_EQ(kernel.tie_break_count, reference.tie_break_count);
  ASSERT_EQ(kernel.bank_probabilities.size(),
            reference.bank_probabilities.size());
  for (std::size_t k = 0; k < kernel.bank_probabilities.size(); ++k)
    EXPECT_EQ(kernel.bank_probabilities[k], reference.bank_probabilities[k]);
  EXPECT_EQ(kernel.acceptance_threshold, reference.acceptance_threshold);
  ASSERT_EQ(kernel.dissimilarity_scores.size(),
            reference.dissimilarity_scores.size());
  for (std::size_t c = 0; c < kernel.dissimilarity_scores.size(); ++c) {
    if (kernel.type == kernel.matched_types[c]) {
      EXPECT_EQ(kernel.dissimilarity_scores[c],
                reference.dissimilarity_scores[c]);
    } else {
      EXPECT_LE(kernel.dissimilarity_scores[c],
                reference.dissimilarity_scores[c]);
    }
  }
  EXPECT_LE(kernel.edit_distance_count, reference.edit_distance_count);
}

// Batch vs single and 1 vs N threads run the same kernel on the same
// per-probe RNG stream: every field but the timings must agree exactly.
void ExpectSameResult(const core::IdentificationResult& a,
                      const core::IdentificationResult& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.matched_types, b.matched_types);
  EXPECT_EQ(a.bank_labels, b.bank_labels);
  EXPECT_EQ(a.bank_probabilities, b.bank_probabilities);
  EXPECT_EQ(a.dissimilarity_scores, b.dissimilarity_scores);
  EXPECT_EQ(a.edit_distance_count, b.edit_distance_count);
  EXPECT_EQ(a.tie_break_count, b.tie_break_count);
}

TEST(IdentifyFastPath, MatchesReferenceOnEveryProbe) {
  const auto dataset = devices::GenerateFingerprintDataset(6, 2026);
  auto identifier = TrainedIdentifier(dataset);
  // Fresh probes the bank has not seen verbatim, plus the training set
  // itself (which provokes multi-matches and exact ties between
  // same-hardware siblings — the pruning danger zone).
  const auto probes = devices::GenerateFingerprintDataset(3, 777);
  std::size_t multi = 0;
  for (const auto* set : {&probes, &dataset}) {
    for (std::size_t i = 0; i < set->size(); ++i) {
      const auto kernel =
          identifier.Identify(set->fingerprints[i], set->fixed[i]);
      const auto reference =
          identifier.IdentifyReference(set->fingerprints[i], set->fixed[i]);
      ExpectExactMatchesReference(kernel, reference);
      if (kernel.matched_types.size() > 1) ++multi;
    }
  }
  EXPECT_GT(multi, 0u);
}

TEST(IdentifyFastPath, BatchMatchesPerCallIdentify) {
  const auto dataset = devices::GenerateFingerprintDataset(5, 11);
  auto identifier = TrainedIdentifier(dataset);
  const auto probes = devices::GenerateFingerprintDataset(4, 99);
  const auto refs = ToRefs(probes);
  for (const auto provenance :
       {Provenance::kExact, Provenance::kCertifiedBounds}) {
    const auto batch = identifier.IdentifyBatch(refs, provenance);
    ASSERT_EQ(batch.size(), probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      ExpectSameResult(batch[i],
                       identifier.Identify(probes.fingerprints[i],
                                           probes.fixed[i], provenance));
    }
  }
}

TEST(IdentifyFastPath, BatchMatchesAcrossThreadCounts) {
  const auto dataset = devices::GenerateFingerprintDataset(4, 21);
  auto identifier = TrainedIdentifier(dataset);
  // Enough probes that a 4-thread pool fans out both stages.
  const auto probes = devices::GenerateFingerprintDataset(3, 5);
  const auto refs = ToRefs(probes);
  ASSERT_GT(refs.size(), 16u);

  util::ThreadPool pool(4);
  for (const auto provenance :
       {Provenance::kExact, Provenance::kCertifiedBounds}) {
    identifier.set_thread_pool(nullptr);
    const auto sequential = identifier.IdentifyBatch(refs, provenance);
    identifier.set_thread_pool(&pool);
    const auto pooled = identifier.IdentifyBatch(refs, provenance);
    ASSERT_EQ(sequential.size(), pooled.size());
    for (std::size_t i = 0; i < sequential.size(); ++i)
      ExpectSameResult(sequential[i], pooled[i]);
  }
  identifier.set_thread_pool(nullptr);
}

TEST(IdentifyFastPath, BankEarlyExitPreservesVerdicts) {
  const auto dataset = devices::GenerateFingerprintDataset(5, 31);
  auto identifier = TrainedIdentifier(dataset);
  const auto probes = devices::GenerateFingerprintDataset(3, 8);
  for (const auto* set : {&probes, &dataset}) {
    for (std::size_t i = 0; i < set->size(); ++i) {
      const auto exact = identifier.Identify(set->fingerprints[i],
                                             set->fixed[i], Provenance::kExact);
      const auto bounds =
          identifier.Identify(set->fingerprints[i], set->fixed[i],
                              Provenance::kCertifiedBounds);
      // Early exit trades exact recorded probabilities for speed; every
      // verdict-grade field, and the served bytes, must be untouched.
      EXPECT_EQ(core::IdentifyServer::RenderVerdictJson(bounds),
                core::IdentifyServer::RenderVerdictJson(exact));
      EXPECT_EQ(bounds.type, exact.type);
      EXPECT_EQ(bounds.matched_types, exact.matched_types);
      EXPECT_EQ(bounds.bank_labels, exact.bank_labels);
      EXPECT_EQ(bounds.tie_break_count, exact.tie_break_count);
      EXPECT_EQ(bounds.dissimilarity_scores, exact.dissimilarity_scores);
      EXPECT_EQ(bounds.edit_distance_count, exact.edit_distance_count);
      // Recorded bounds must be consistent with each classifier's verdict.
      ASSERT_EQ(bounds.bank_probabilities.size(),
                exact.bank_probabilities.size());
      for (std::size_t k = 0; k < bounds.bank_probabilities.size(); ++k) {
        EXPECT_EQ(bounds.bank_probabilities[k] >= bounds.acceptance_threshold,
                  exact.bank_probabilities[k] >= exact.acceptance_threshold);
      }
    }
  }
}

TEST(IdentifyFastPath, SavedBytesUnchangedByCompiledBank) {
  const auto dataset = devices::GenerateFingerprintDataset(4, 41);
  auto identifier = TrainedIdentifier(dataset);
  const auto bytes = SaveBank(identifier);

  // A reloaded identifier (which recompiles its bank and reference index)
  // must serialize to the same bytes and answer identically.
  net::ByteReader r(bytes);
  auto reloaded = core::DeviceIdentifier::Load(r);
  EXPECT_EQ(SaveBank(reloaded), bytes);

  const auto probes = devices::GenerateFingerprintDataset(2, 4);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto original =
        identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
    const auto loaded =
        reloaded.Identify(probes.fingerprints[i], probes.fixed[i]);
    ExpectSameResult(original, loaded);
    ExpectExactMatchesReference(
        loaded,
        reloaded.IdentifyReference(probes.fingerprints[i], probes.fixed[i]));
  }
}

TEST(IdentifyFastPath, IdentifyFillsStageTimingsAndHistograms) {
  const auto dataset = devices::GenerateFingerprintDataset(4, 71);
  obs::MetricsRegistry registry;
  core::DeviceIdentifier identifier;
  identifier.set_metrics(&registry);
  identifier.Train(ToExamples(dataset));
  std::size_t discriminated = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto result =
        identifier.Identify(dataset.fingerprints[i], dataset.fixed[i]);
    EXPECT_GT(result.classification_time.count(), 0);
    if (result.matched_types.empty()) continue;
    EXPECT_GT(result.discrimination_time.count(), 0);
    ++discriminated;
  }
  ASSERT_GT(discriminated, 0u);
  EXPECT_EQ(registry.GetHistogram("sentinel_identifier_classification_ns", "")
                .Count(),
            dataset.size());
  EXPECT_EQ(registry.GetHistogram("sentinel_identifier_discrimination_ns", "")
                .Count(),
            discriminated);
  EXPECT_EQ(registry.GetCounter("sentinel_identifier_identify_total", "")
                .Value(),
            dataset.size());
}

// The server's batches run under kCertifiedBounds: every served byte must
// equal the per-call kExact verdict a gateway would compute.
TEST(IdentifyBatchServe, MatchesBatchAndPerCallVerdicts) {
  const auto dataset = devices::GenerateFingerprintDataset(6, 2026);
  auto identifier = TrainedIdentifier(dataset);
  // Training fingerprints provoke multi-matches and exact ties; fresh
  // probes cover the accept/reject boundary.
  const auto probes = devices::GenerateFingerprintDataset(3, 777);
  for (const auto* set : {&probes, &dataset}) {
    const auto served =
        identifier.IdentifyBatch(ToRefs(*set), Provenance::kCertifiedBounds);
    ASSERT_EQ(served.size(), set->size());
    for (std::size_t i = 0; i < set->size(); ++i) {
      const auto single =
          identifier.Identify(set->fingerprints[i], set->fixed[i]);
      EXPECT_EQ(core::IdentifyServer::RenderVerdictJson(served[i]),
                core::IdentifyServer::RenderVerdictJson(single));
      EXPECT_EQ(served[i].dissimilarity_scores, single.dissimilarity_scores);
    }
  }
}

TEST(IdentifyBatchServe, SurvivesSaveLoadRoundTrip) {
  const auto dataset = devices::GenerateFingerprintDataset(5, 61);
  auto identifier = TrainedIdentifier(dataset);
  const auto bytes = SaveBank(identifier);
  net::ByteReader r(bytes);
  auto reloaded = core::DeviceIdentifier::Load(r);
  const auto probes = devices::GenerateFingerprintDataset(2, 9);
  const auto refs = ToRefs(probes);
  const auto original =
      identifier.IdentifyBatch(refs, Provenance::kCertifiedBounds);
  const auto loaded =
      reloaded.IdentifyBatch(refs, Provenance::kCertifiedBounds);
  ASSERT_EQ(original.size(), loaded.size());
  for (std::size_t i = 0; i < original.size(); ++i)
    ExpectSameResult(original[i], loaded[i]);
}

TEST(IdentifyFastPath, PruningCountersFire) {
  const auto dataset = devices::GenerateFingerprintDataset(6, 51);
  obs::MetricsRegistry registry;
  core::DeviceIdentifier identifier;
  identifier.set_metrics(&registry);
  identifier.Train(ToExamples(dataset));
  // Training fingerprints multi-match heavily, exercising both stage-1
  // early exits and stage-2 pruning.
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    (void)identifier.Identify(dataset.fingerprints[i], dataset.fixed[i],
                              Provenance::kCertifiedBounds);
  }
  const auto& early = registry.GetCounter("sentinel_bank_early_exit_total", "");
  EXPECT_GT(early.Value(), 0u);
  const auto& pruned =
      registry.GetCounter("sentinel_identifier_editdist_pruned_total", "");
  EXPECT_GT(pruned.Value(), 0u);
}

}  // namespace
}  // namespace sentinel

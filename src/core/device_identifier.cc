#include "core/device_identifier.h"

#include <algorithm>

#include "features/fingerprint_codec.h"
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

#include "obs/log.h"
#include "obs/profiler.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"

namespace sentinel::core {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

void DeviceIdentifier::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    handles_ = IdentifierMetrics{};
    return;
  }
  handles_.bank_train_ns = &registry->GetHistogram(
      "sentinel_identifier_bank_train_ns",
      "wall time to train the full per-type classifier bank");
  handles_.classification_ns = &registry->GetHistogram(
      "sentinel_identifier_classification_ns",
      "stage-1 classifier-bank scan time per fingerprint");
  handles_.discrimination_ns = &registry->GetHistogram(
      "sentinel_identifier_discrimination_ns",
      "stage-2 edit-distance discrimination time per fingerprint");
  handles_.identify_total = &registry->GetCounter(
      "sentinel_identifier_identify_total", "fingerprints identified");
  handles_.unknown_total = &registry->GetCounter(
      "sentinel_identifier_unknown_total",
      "fingerprints reported as new/unknown device-types");
  handles_.multi_match_total = &registry->GetCounter(
      "sentinel_identifier_multi_match_total",
      "fingerprints accepted by more than one per-type classifier");
  handles_.accepts_total = &registry->GetCounter(
      "sentinel_identifier_accepts_total",
      "per-type classifier acceptances across all bank scans");
  handles_.edit_distance_total = &registry->GetCounter(
      "sentinel_identifier_edit_distance_total",
      "Damerau-Levenshtein computations in discrimination");
  handles_.tiebreak_total = &registry->GetCounter(
      "sentinel_identifier_tiebreak_total",
      "equal-dissimilarity tie-break coin flips");
  handles_.editdist_pruned = &registry->GetCounter(
      "sentinel_identifier_editdist_pruned_total",
      "edit-distance computations skipped because the candidate provably "
      "could not beat the best tie-break score");
  handles_.bank_early_exit = &registry->GetCounter(
      "sentinel_bank_early_exit_total",
      "bank-scan classifier evaluations that stopped early because the "
      "remaining trees' probability bounds had decided the verdict");
  handles_.types = &registry->GetGauge(
      "sentinel_identifier_types", "device-types in the trained bank");
  handles_.types->Set(static_cast<double>(types_.size()));
}

void DeviceIdentifier::set_quality_monitor(obs::QualityMonitor* monitor) {
  quality_ = monitor;
  if (quality_ != nullptr && !labels_.empty()) quality_->BindTypes(labels_);
}

void DeviceIdentifier::RecordQuality(const IdentificationResult& result) const {
  if (quality_ == nullptr) return;
  obs::QualitySample sample;
  // First-max scan keeps the top-1/top-2 pick deterministic under equal
  // probabilities.
  double top1 = 0.0;
  double top2 = 0.0;
  int top_label = -1;
  for (std::size_t k = 0; k < result.bank_probabilities.size(); ++k) {
    const double p = result.bank_probabilities[k];
    if (top_label < 0 || p > top1) {
      top2 = top1;
      top1 = p;
      top_label = result.bank_labels[k];
    } else if (p > top2) {
      top2 = p;
    }
  }
  sample.top_label = result.type.has_value() ? *result.type : top_label;
  sample.top1_probability = top1;
  sample.top2_probability = top2;
  sample.unknown = !result.IsKnown();
  sample.multi_match = result.matched_types.size() > 1;
  sample.tie_break_count = result.tie_break_count;
  double best = std::numeric_limits<double>::quiet_NaN();
  for (const double score : result.dissimilarity_scores) {
    if (std::isnan(best) || score < best) best = score;
  }
  sample.best_dissimilarity = best;
  quality_->Record(sample);
}

void DeviceIdentifier::TrainOne(
    PerType& entry, const std::vector<LabelledFingerprint>& positives,
    const std::vector<const std::vector<double>*>& positive_rows,
    const std::vector<const std::vector<double>*>& negative_rows,
    std::uint64_t salt) {
  if (positives.empty())
    throw std::invalid_argument("TrainOne: no positive examples");

  ml::Rng rng(ml::DeriveSeed(config_.seed, salt));
  const std::size_t want_negatives =
      std::min(negative_rows.size(), config_.negative_ratio * positives.size());

  // Sample negatives without replacement (partial Fisher-Yates).
  std::vector<const std::vector<double>*> sampled = negative_rows;
  for (std::size_t i = 0; i < want_negatives; ++i) {
    std::uniform_int_distribution<std::size_t> pick(i, sampled.size() - 1);
    std::swap(sampled[i], sampled[pick(rng)]);
  }

  ml::Dataset data(features::kFPrimeDim);
  for (const auto* row : positive_rows) data.Add(*row, 1);
  for (std::size_t i = 0; i < want_negatives; ++i) data.Add(*sampled[i], 0);

  ml::RandomForestConfig forest_config = config_.forest;
  forest_config.seed = ml::DeriveSeed(config_.seed, salt ^ 0xf0f0f0f0ull);
  entry.classifier.Train(data, forest_config, pool_, metrics_);

  entry.references.clear();
  entry.references.reserve(positives.size());
  for (const auto& example : positives) entry.references.push_back(*example.full);
  entry.flat = ml::FlatForest::Compile(entry.classifier);
}

void DeviceIdentifier::CompileReferenceIndex() {
  index_.table.Clear();
  index_.reference_ids.assign(types_.size(), {});
  index_.reference_bags.assign(types_.size(), {});
  for (std::size_t k = 0; k < types_.size(); ++k) {
    auto& ids = index_.reference_ids[k];
    ids.assign(types_[k].references.size(), {});
    for (std::size_t i = 0; i < types_[k].references.size(); ++i) {
      index_.table.Intern(types_[k].references[i].packets(), ids[i]);
    }
  }
  index_.table.Freeze();
  for (std::size_t k = 0; k < types_.size(); ++k) {
    auto& bags = index_.reference_bags[k];
    bags.assign(index_.reference_ids[k].size(), {});
    for (std::size_t i = 0; i < index_.reference_ids[k].size(); ++i) {
      auto sorted = index_.reference_ids[k][i];
      std::sort(sorted.begin(), sorted.end());
      auto& bag = bags[i];
      for (std::size_t j = 0; j < sorted.size();) {
        std::size_t run = j + 1;
        while (run < sorted.size() && sorted[run] == sorted[j]) ++run;
        bag.emplace_back(sorted[j], static_cast<std::uint32_t>(run - j));
        j = run;
      }
    }
  }
}

void DeviceIdentifier::Train(const std::vector<LabelledFingerprint>& examples) {
  obs::ScopedTimer bank_timer(handles_.bank_train_ns);
  types_.clear();
  labels_.clear();

  // Flatten each example's F' exactly once. Every per-type classifier sees
  // the same flattening (as a positive for its own type, as a candidate
  // negative for all others), so doing it inside the per-type loop would
  // redo identical work ~(1 + negative_ratio) times per example.
  std::vector<std::vector<double>> rows(examples.size());
  util::ParallelFor(pool_, examples.size(), [&](std::size_t i) {
    rows[i] = examples[i].fixed->ToVector();
  });

  std::map<int, std::vector<std::size_t>> by_label;
  for (std::size_t i = 0; i < examples.size(); ++i)
    by_label[examples[i].label].push_back(i);

  std::vector<int> ordered_labels;
  ordered_labels.reserve(by_label.size());
  for (const auto& group : by_label) ordered_labels.push_back(group.first);

  // One-vs-rest training is a map over independent label entries: each
  // entry derives all its randomness from (seed, label), writes only its
  // own slot, and the slots are laid out in ascending label order up
  // front — so the parallel bank is identical to the sequential one.
  types_.resize(ordered_labels.size());
  const obs::TraceContext trace_parent = obs::CurrentTraceContext();
  util::ParallelFor(pool_, ordered_labels.size(), [&](std::size_t j) {
    obs::ScopedTraceContext trace_carry(trace_parent);
    obs::ScopedSpan type_span("sentinel_identifier_train_type");
    const int label = ordered_labels[j];
    if (type_span.enabled())
      type_span.AddArg("label", std::to_string(label));
    const auto& positive_indices = by_label.at(label);
    std::vector<LabelledFingerprint> positives;
    std::vector<const std::vector<double>*> positive_rows;
    positives.reserve(positive_indices.size());
    positive_rows.reserve(positive_indices.size());
    for (const std::size_t i : positive_indices) {
      positives.push_back(examples[i]);
      positive_rows.push_back(&rows[i]);
    }
    std::vector<const std::vector<double>*> negative_rows;
    negative_rows.reserve(examples.size() - positives.size());
    for (std::size_t i = 0; i < examples.size(); ++i) {
      if (examples[i].label != label) negative_rows.push_back(&rows[i]);
    }
    PerType entry;
    entry.label = label;
    TrainOne(entry, positives, positive_rows, negative_rows,
             static_cast<std::uint64_t>(label) + 1);
    types_[j] = std::move(entry);
  });
  labels_ = std::move(ordered_labels);
  RebuildLabelIndex();
  CompileReferenceIndex();
  if (handles_.types != nullptr)
    handles_.types->Set(static_cast<double>(types_.size()));
  if (quality_ != nullptr) quality_->BindTypes(labels_);
  SENTINEL_LOG_INFO("identifier", "bank_trained", {"types", types_.size()},
                    {"examples", examples.size()});
}

void DeviceIdentifier::RebuildLabelIndex() {
  label_index_.clear();
  label_index_.reserve(types_.size());
  for (std::size_t k = 0; k < types_.size(); ++k)
    label_index_.emplace(types_[k].label, k);
}

void DeviceIdentifier::AddType(
    int label, const std::vector<LabelledFingerprint>& examples,
    const std::vector<LabelledFingerprint>& negatives) {
  if (std::find(labels_.begin(), labels_.end(), label) != labels_.end())
    throw std::invalid_argument("AddType: label already trained");
  std::vector<std::vector<double>> positive_storage(examples.size());
  std::vector<std::vector<double>> negative_storage(negatives.size());
  std::vector<const std::vector<double>*> positive_rows(examples.size());
  std::vector<const std::vector<double>*> negative_rows(negatives.size());
  for (std::size_t i = 0; i < examples.size(); ++i) {
    positive_storage[i] = examples[i].fixed->ToVector();
    positive_rows[i] = &positive_storage[i];
  }
  for (std::size_t i = 0; i < negatives.size(); ++i) {
    negative_storage[i] = negatives[i].fixed->ToVector();
    negative_rows[i] = &negative_storage[i];
  }
  PerType entry;
  entry.label = label;
  TrainOne(entry, examples, positive_rows, negative_rows,
           static_cast<std::uint64_t>(label) + 1);
  types_.push_back(std::move(entry));
  labels_.push_back(label);
  RebuildLabelIndex();
  CompileReferenceIndex();
  if (handles_.types != nullptr)
    handles_.types->Set(static_cast<double>(types_.size()));
  if (quality_ != nullptr) quality_->BindTypes(labels_);
  SENTINEL_LOG_INFO("identifier", "type_added", {"label", label},
                    {"types", types_.size()});
}

IdentificationResult DeviceIdentifier::Identify(
    const features::Fingerprint& full, const features::FixedFingerprint& fixed,
    Provenance provenance) const {
  const FingerprintRef probe{.full = &full, .fixed = &fixed};
  return std::move(IdentifyBatch({&probe, 1}, provenance).front());
}

IdentificationResult DeviceIdentifier::IdentifyReference(
    const features::Fingerprint& full,
    const features::FixedFingerprint& fixed) const {
  SENTINEL_PROFILE_SCOPE("identify.reference");
  IdentificationResult result;
  result.acceptance_threshold = config_.acceptance_threshold;
  const auto row = fixed.ToVector();

  // Stage 1: every per-type classifier votes. The scan parallelizes over
  // the bank (votes land in per-type slots); candidates are then collected
  // in bank order, so the match list is scan-order independent. The raw
  // probabilities are kept as provenance: the verdict only consumes the
  // threshold comparison, but the flight recorder journals every vote.
  obs::ScopedSpan bank_span("sentinel_identifier_bank_scan");
  const auto t0 = Clock::now();
  result.bank_probabilities.assign(types_.size(), 0.0);
  util::ParallelFor(pool_, types_.size(), [&](std::size_t k) {
    result.bank_probabilities[k] = types_[k].classifier.PositiveProba(row);
  });
  result.bank_labels.reserve(types_.size());
  for (std::size_t k = 0; k < types_.size(); ++k) {
    result.bank_labels.push_back(types_[k].label);
    if (result.bank_probabilities[k] >= config_.acceptance_threshold)
      result.matched_types.push_back(types_[k].label);
  }
  result.classification_time = Clock::now() - t0;
  if (bank_span.enabled()) {
    bank_span.AddArg("types", std::to_string(types_.size()));
    bank_span.AddArg("matches", std::to_string(result.matched_types.size()));
  }
  bank_span.End();
  if (handles_.identify_total != nullptr) {
    handles_.identify_total->Increment();
    handles_.accepts_total->Increment(result.matched_types.size());
    handles_.classification_ns->Observe(
        static_cast<double>(result.classification_time.count()));
    if (result.matched_types.size() > 1)
      handles_.multi_match_total->Increment();
  }

  if (result.matched_types.empty()) {
    if (handles_.unknown_total != nullptr) handles_.unknown_total->Increment();
    SENTINEL_LOG_DEBUG("identifier", "identified", {"outcome", "unknown"},
                       {"matches", std::size_t{0}});
    return result;  // unknown device-type
  }

  // Stage 2: edit-distance discrimination over the candidates. For a
  // single match the paper assigns directly; here the same reference
  // distances are still computed as an open-set check (see
  // rejection_distance), so a fingerprint that one loosely-fitting
  // classifier accepts but that resembles none of that type's actual
  // reference fingerprints is reported as a new device-type. The paper
  // compares against 5 randomly selected reference fingerprints per
  // candidate type; here the selection is seeded from the probe itself, so
  // a given fingerprint is always identified the same way while different
  // probes draw different reference subsets (matching the paper's
  // randomized behaviour in aggregate).
  obs::ScopedSpan tiebreak_span("sentinel_stage_tie_break");
  const auto t1 = Clock::now();
  std::uint64_t probe_hash = 0xcbf29ce484222325ull;
  for (const auto& packet : full.packets()) {
    for (const auto value : packet) {
      probe_hash = (probe_hash ^ value) * 0x100000001b3ull;
    }
  }
  ml::SmallRng reference_rng(probe_hash);
  double best_score = std::numeric_limits<double>::infinity();
  int best_label = result.matched_types.front();
  std::size_t best_take = 1;
  for (const int label : result.matched_types) {
    const auto entry_it =
        std::find_if(types_.begin(), types_.end(),
                     [label](const PerType& e) { return e.label == label; });
    const auto& references = entry_it->references;
    const std::size_t take =
        std::min(config_.discrimination_references, references.size());
    // Partial Fisher-Yates over reference indices: `take` distinct picks.
    std::vector<std::size_t> indices(references.size());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    for (std::size_t i = 0; i < take; ++i) {
      std::uniform_int_distribution<std::size_t> pick(i, indices.size() - 1);
      std::swap(indices[i], indices[pick(reference_rng)]);
    }
    // The edit distances themselves consume no randomness, so they can run
    // in parallel; summing the per-reference results in index order keeps
    // the floating-point score identical to the sequential loop. (The
    // candidate loop around this stays sequential: the reference picks and
    // tie-break coins interleave on one RNG stream, which is part of the
    // per-probe determinism contract.)
    std::vector<double> distances(take);
    util::ParallelFor(pool_, take, [&](std::size_t i) {
      distances[i] =
          features::NormalizedEditDistance(full, references[indices[i]]);
    });
    double score = 0.0;
    for (std::size_t i = 0; i < take; ++i) {
      score += distances[i];
      ++result.edit_distance_count;
    }
    result.dissimilarity_scores.push_back(score);
    // Equal scores are common between types that share hardware/firmware
    // (their fingerprints can be identical); the paper's random reference
    // draw makes such ties land on either type, which the coin flip below
    // reproduces without sacrificing per-probe determinism.
    if (score < best_score) {
      best_score = score;
      best_label = label;
      best_take = std::max<std::size_t>(1, take);
    } else if (score == best_score) {
      ++result.tie_break_count;
      if (handles_.tiebreak_total != nullptr)
        handles_.tiebreak_total->Increment();
      std::uniform_int_distribution<int> coin(0, 1);
      if (coin(reference_rng) == 1) best_label = label;
    }
  }
  result.discrimination_time = Clock::now() - t1;
  if (tiebreak_span.enabled()) {
    tiebreak_span.AddArg("candidates",
                         std::to_string(result.matched_types.size()));
    tiebreak_span.AddArg("edit_distances",
                         std::to_string(result.edit_distance_count));
    tiebreak_span.AddArg("best_label", std::to_string(best_label));
  }
  tiebreak_span.End();
  if (handles_.discrimination_ns != nullptr) {
    handles_.discrimination_ns->Observe(
        static_cast<double>(result.discrimination_time.count()));
    handles_.edit_distance_total->Increment(result.edit_distance_count);
  }
  // Open-set gate: if even the winner is (on average) nearly maximally
  // distant from its own references, the device is like none of them.
  if (best_score / static_cast<double>(best_take) >
      config_.rejection_distance) {
    if (handles_.unknown_total != nullptr) handles_.unknown_total->Increment();
    SENTINEL_LOG_DEBUG("identifier", "identified", {"outcome", "rejected"},
                       {"matches", result.matched_types.size()},
                       {"best_score", best_score});
    return result;  // new device-type
  }
  result.type = best_label;
  SENTINEL_LOG_DEBUG("identifier", "identified", {"outcome", "known"},
                     {"label", best_label},
                     {"matches", result.matched_types.size()});
  return result;
}

std::vector<IdentificationResult> DeviceIdentifier::IdentifyBatch(
    std::span<const FingerprintRef> probes, Provenance provenance) const {
  SENTINEL_PROFILE_SCOPE("identify.kernel");
  const std::size_t rows = probes.size();
  std::vector<IdentificationResult> results(rows);
  if (rows == 0) return results;

  // Row-major F' matrix. A single probe's F' is already one contiguous
  // row, consumed in place.
  std::vector<double> stacked;
  std::span<const double> matrix(probes.front().fixed->values());
  if (rows > 1) {
    stacked.resize(rows * features::kFPrimeDim);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto& values = probes[r].fixed->values();
      std::copy(values.begin(), values.end(),
                stacked.begin() +
                    static_cast<std::ptrdiff_t>(r * features::kFPrimeDim));
    }
    matrix = stacked;
  }

  // Stage 1: type-outer sweep, so each arena stays cache-hot across the
  // whole probe matrix. kExact accumulates every tree; kCertifiedBounds
  // stops a row's scan as soon as the remaining trees' bounds decide its
  // verdict. Either way p >= threshold is exactly the accept test, since
  // an early-exit bound lies on the verdict's side of the threshold.
  obs::ScopedSpan bank_span("sentinel_identifier_bank_scan");
  const auto t0 = Clock::now();
  std::vector<double> proba(types_.size() * rows, 0.0);
  std::vector<std::size_t> early_exits(types_.size(), 0);
  // Work grain: a dispatched task should scan at least ~2k probe rows —
  // below that, pool dispatch costs more than the scan itself. Each index
  // scans `rows` probes, so the grain is expressed in types-per-task; a
  // single probe never leaves the calling thread.
  constexpr std::size_t kMinScanEvalsPerTask = 2048;
  const std::size_t scan_grain =
      std::max<std::size_t>(1, kMinScanEvalsPerTask / rows);
  util::ParallelFor(
      pool_, types_.size(),
      [&](std::size_t k) {
        const ml::FlatForest& flat = types_[k].flat;
        const auto out = std::span<double>(proba).subspan(k * rows, rows);
        if (provenance == Provenance::kCertifiedBounds) {
          for (std::size_t r = 0; r < rows; ++r) {
            const auto verdict = flat.PositiveProbaThreshold(
                matrix.subspan(r * features::kFPrimeDim, features::kFPrimeDim),
                config_.acceptance_threshold);
            out[r] = verdict.probability;
            if (verdict.early_exit) ++early_exits[k];
          }
        } else {
          flat.PositiveProbaBatch(matrix, features::kFPrimeDim, out);
        }
      },
      scan_grain);
  const auto scan_share = (Clock::now() - t0) / static_cast<long>(rows);
  if (bank_span.enabled()) {
    bank_span.AddArg("types", std::to_string(types_.size()));
    bank_span.AddArg("probes", std::to_string(rows));
  }
  bank_span.End();
  if (handles_.bank_early_exit != nullptr) {
    const std::size_t exits =
        std::accumulate(early_exits.begin(), early_exits.end(), std::size_t{0});
    if (exits > 0) handles_.bank_early_exit->Increment(exits);
  }

  // Stage 2 is independent per probe (each draws its picks and coins from
  // its own probe-hash-seeded RNG), so probes discriminate in parallel;
  // metrics handles are atomic. Chunks of 16 probes amortize dispatch —
  // small batches run sequentially on the caller.
  constexpr std::size_t kMinRowsPerTask = 16;
  util::ParallelFor(
      pool_, rows,
      [&](std::size_t r) {
        IdentificationResult& result = results[r];
        result.acceptance_threshold = config_.acceptance_threshold;
        result.bank_probabilities.resize(types_.size());
        result.bank_labels.reserve(types_.size());
        for (std::size_t k = 0; k < types_.size(); ++k) {
          const double p = proba[k * rows + r];
          result.bank_probabilities[k] = p;
          result.bank_labels.push_back(types_[k].label);
          if (p >= config_.acceptance_threshold)
            result.matched_types.push_back(types_[k].label);
        }
        result.classification_time =
            std::chrono::duration_cast<std::chrono::nanoseconds>(scan_share);
        if (handles_.identify_total != nullptr) {
          handles_.identify_total->Increment();
          handles_.accepts_total->Increment(result.matched_types.size());
          handles_.classification_ns->Observe(
              static_cast<double>(result.classification_time.count()));
          if (result.matched_types.size() > 1)
            handles_.multi_match_total->Increment();
        }
        if (result.matched_types.empty()) {
          if (handles_.unknown_total != nullptr)
            handles_.unknown_total->Increment();
          SENTINEL_LOG_DEBUG("identifier", "identified", {"outcome", "unknown"},
                             {"matches", std::size_t{0}});
        } else {
          Discriminate(*probes[r].full, result);
        }
        RecordQuality(result);
      },
      kMinRowsPerTask);
  return results;
}

void DeviceIdentifier::Discriminate(const features::Fingerprint& full,
                                    IdentificationResult& result) const {
  obs::ScopedSpan tiebreak_span("sentinel_stage_tie_break");
  const auto t1 = Clock::now();
  // One scratch per thread, reused across calls and identifiers: every
  // buffer is either resized on use or restored to all-zero before
  // returning, and nothing below re-enters Discriminate.
  thread_local DiscriminationScratch scratch;
  std::uint64_t probe_hash = 0xcbf29ce484222325ull;
  for (const auto& packet : full.packets()) {
    for (const auto value : packet) {
      probe_hash = (probe_hash ^ value) * 0x100000001b3ull;
    }
  }
  ml::SmallRng reference_rng(probe_hash);
  // One probe intern against the cross-type table covers every candidate
  // (id equality over the shared table is equivalent to packet equality,
  // so every distance below is unchanged), and one Myers pattern over the
  // probe serves every reference comparison. Both use persistently-zeroed
  // scratch restored before returning.
  index_.table.InternReadOnly(full.packets(), scratch.ed.overflow,
                              scratch.ed.ids_a);
  const std::span<const std::uint32_t> probe_ids(scratch.ed.ids_a);
  const std::size_t table = index_.table.size();
  // Myers bit-parallel Levenshtein over the probe as pattern: an exact
  // upper bound on each OSA distance (OSA only adds transposition to
  // Levenshtein's operation set), capping the banded program at the true
  // distance's width. Fingerprints are capped well under 64 packets, so
  // the build only declines on adversarial input.
  const bool myers_ok = features::BuildMyersPatternSparse(
      probe_ids, table + scratch.ed.overflow.size(), scratch.ed);
  // Probe id histogram for the bag bounds. Overflow ids (absent from
  // every reference) cannot contribute to any bag intersection, so only
  // table ids are counted.
  if (scratch.counts.size() < table) scratch.counts.resize(table, 0);
  for (const std::uint32_t id : probe_ids) {
    if (id < table) ++scratch.counts[id];
  }
  double best_score = std::numeric_limits<double>::infinity();
  int best_label = result.matched_types.front();
  std::size_t best_take = 1;
  std::size_t pruned_references = 0;
  for (const int label : result.matched_types) {
    const std::size_t slot = label_index_.at(label);
    const auto& references = types_[slot].references;
    const std::size_t take =
        std::min(config_.discrimination_references, references.size());
    // The picks consume the RNG exactly as IdentifyReference does, pruned
    // or not — the per-probe determinism contract hinges on this stream
    // never diverging.
    auto& indices = scratch.indices;
    indices.resize(references.size());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    for (std::size_t i = 0; i < take; ++i) {
      std::uniform_int_distribution<std::size_t> pick(i, indices.size() - 1);
      std::swap(indices[i], indices[pick(reference_rng)]);
    }
    const auto& reference_ids = index_.reference_ids[slot];
    // Per-reference bag lower bounds (every alignment keeps at most
    // |multiset intersection| elements; each unkept element of the
    // longer side costs at least one operation) and whole-candidate
    // pre-prune: the normalized bounds summed with the exact division
    // and left-to-right addition order of the score accumulation below
    // (both monotone under rounding) certify a lower bound on the
    // candidate's final score. Strictly above best means no win and no
    // tie — the candidate is eliminated without running a single DP,
    // with the RNG picks already consumed and no coin owed.
    auto& bag_lb = scratch.bag_lb;
    bag_lb.assign(take, 0);
    double bound_sum = 0.0;
    for (std::size_t i = 0; i < take; ++i) {
      std::size_t overlap = 0;
      for (const auto& [id, count] : index_.reference_bags[slot][indices[i]]) {
        overlap += std::min<std::size_t>(count, scratch.counts[id]);
      }
      const std::size_t longest =
          std::max(probe_ids.size(), reference_ids[indices[i]].size());
      bag_lb[i] = longest - overlap;
      if (longest > 0) {
        bound_sum += static_cast<double>(bag_lb[i]) /
                     static_cast<double>(longest);
      }
    }
    if (bound_sum > best_score) {
      pruned_references += take;
      // The certified lower bound the candidate was eliminated at.
      result.dissimilarity_scores.push_back(bound_sum);
      continue;
    }
    // References accumulate sequentially so each one sees the candidate's
    // running score: a reference whose certified distance lower bound
    // already pushes the candidate strictly above the best score ends the
    // candidate (it can neither win nor tie). Non-pruned distances are
    // bit-identical to NormalizedEditDistance and summed in the same
    // order, so a candidate that completes has exactly the reference
    // implementation's score — ties (and their coin flips) are preserved,
    // and the eventual winner is never pruned (pruning certifies a score
    // above the then-current best, which only ever decreases).
    double score = 0.0;
    bool pruned = false;
    for (std::size_t i = 0; i < take; ++i) {
      const std::span<const std::uint32_t> reference_span(
          reference_ids[indices[i]]);
      const std::size_t upper =
          myers_ok ? features::MyersDistance(probe_ids.size(), reference_span,
                                             scratch.ed)
                   : std::numeric_limits<std::size_t>::max();
      const auto outcome = features::PrunedNormalizedEditDistance(
          probe_ids, reference_span, bag_lb[i], upper, score, best_score,
          scratch.ed);
      score += outcome.value;
      if (outcome.pruned) {
        pruned = true;
        pruned_references += take - i;
        break;
      }
      ++result.edit_distance_count;
    }
    // For pruned candidates this records the certified lower bound the
    // candidate was eliminated at, not the exact score.
    result.dissimilarity_scores.push_back(score);
    if (pruned) continue;
    // Equal scores are common between types that share hardware/firmware
    // (their fingerprints can be identical); the coin flip reproduces the
    // paper's random reference draw landing on either type.
    if (score < best_score) {
      best_score = score;
      best_label = label;
      best_take = std::max<std::size_t>(1, take);
    } else if (score == best_score) {
      ++result.tie_break_count;
      if (handles_.tiebreak_total != nullptr)
        handles_.tiebreak_total->Increment();
      std::uniform_int_distribution<int> coin(0, 1);
      if (coin(reference_rng) == 1) best_label = label;
    }
  }
  // Restore the all-zero invariants for the next probe on this scratch.
  for (const std::uint32_t id : probe_ids) {
    if (id < table) scratch.counts[id] = 0;
  }
  if (myers_ok) features::ClearMyersPattern(probe_ids, scratch.ed);
  result.discrimination_time = Clock::now() - t1;
  if (tiebreak_span.enabled()) {
    tiebreak_span.AddArg("candidates",
                         std::to_string(result.matched_types.size()));
    tiebreak_span.AddArg("edit_distances",
                         std::to_string(result.edit_distance_count));
    tiebreak_span.AddArg("pruned", std::to_string(pruned_references));
    tiebreak_span.AddArg("best_label", std::to_string(best_label));
  }
  tiebreak_span.End();
  if (handles_.discrimination_ns != nullptr) {
    handles_.discrimination_ns->Observe(
        static_cast<double>(result.discrimination_time.count()));
    handles_.edit_distance_total->Increment(result.edit_distance_count);
    if (pruned_references > 0)
      handles_.editdist_pruned->Increment(pruned_references);
  }
  // Open-set gate: if even the winner is (on average) nearly maximally
  // distant from its own references, the device is like none of them.
  if (best_score / static_cast<double>(best_take) >
      config_.rejection_distance) {
    if (handles_.unknown_total != nullptr) handles_.unknown_total->Increment();
    SENTINEL_LOG_DEBUG("identifier", "identified", {"outcome", "rejected"},
                       {"matches", result.matched_types.size()},
                       {"best_score", best_score});
    return;  // new device-type
  }
  result.type = best_label;
  SENTINEL_LOG_DEBUG("identifier", "identified", {"outcome", "known"},
                     {"label", best_label},
                     {"matches", result.matched_types.size()});
}

// Model bundle format: 'S''I''D' ver(1) | config | u32 type_count |
// per type: i32 label, RandomForest, u32 reference_count, references.
void DeviceIdentifier::Save(net::ByteWriter& w) const {
  w.WriteU8('S');
  w.WriteU8('I');
  w.WriteU8('D');
  w.WriteU8(1);  // version
  w.WriteU32(static_cast<std::uint32_t>(config_.negative_ratio));
  w.WriteU32(static_cast<std::uint32_t>(config_.discrimination_references));
  w.WriteU64(static_cast<std::uint64_t>(config_.acceptance_threshold * 1e9));
  w.WriteU64(static_cast<std::uint64_t>(config_.rejection_distance * 1e9));
  w.WriteU64(config_.seed);
  w.WriteU32(static_cast<std::uint32_t>(types_.size()));
  for (const auto& entry : types_) {
    w.WriteU32(static_cast<std::uint32_t>(entry.label));
    entry.classifier.Save(w);
    w.WriteU32(static_cast<std::uint32_t>(entry.references.size()));
    for (const auto& reference : entry.references)
      features::EncodeFingerprint(w, reference);
  }
}

DeviceIdentifier DeviceIdentifier::Load(net::ByteReader& r) {
  if (r.ReadU8() != 'S' || r.ReadU8() != 'I' || r.ReadU8() != 'D')
    throw net::CodecError("not a serialized device identifier");
  if (r.ReadU8() != 1)
    throw net::CodecError("unsupported device-identifier version");
  IdentifierConfig config;
  config.negative_ratio = r.ReadU32();
  config.discrimination_references = r.ReadU32();
  config.acceptance_threshold = static_cast<double>(r.ReadU64()) / 1e9;
  config.rejection_distance = static_cast<double>(r.ReadU64()) / 1e9;
  config.seed = r.ReadU64();
  DeviceIdentifier identifier(config);
  // Counts come from the file, so each is checked against the bytes left
  // before it sizes a buffer: label + the smallest forest + reference
  // count per type, magic + packet count per reference.
  constexpr std::size_t kMinTypeBytes =
      4 + ml::RandomForest::kMinEncodedBytes + 4;
  constexpr std::size_t kMinReferenceBytes = 4 + 2;
  const std::uint32_t type_count = r.ReadU32();
  r.CheckCount(type_count, kMinTypeBytes, "device-type");
  identifier.types_.reserve(type_count);
  for (std::uint32_t t = 0; t < type_count; ++t) {
    PerType entry;
    entry.label = static_cast<int>(r.ReadU32());
    entry.classifier = ml::RandomForest::Load(r);
    const std::uint32_t reference_count = r.ReadU32();
    r.CheckCount(reference_count, kMinReferenceBytes, "reference fingerprint");
    entry.references.reserve(reference_count);
    for (std::uint32_t i = 0; i < reference_count; ++i)
      entry.references.push_back(features::DecodeFingerprint(r));
    entry.flat = ml::FlatForest::Compile(entry.classifier);
    identifier.labels_.push_back(entry.label);
    identifier.types_.push_back(std::move(entry));
  }
  identifier.RebuildLabelIndex();
  identifier.CompileReferenceIndex();
  return identifier;
}

void DeviceIdentifier::SaveToFile(const std::string& path) const {
  net::ByteWriter w;
  Save(w);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("cannot open " + path + " for writing");
  const auto bytes = w.bytes();
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size())
    throw std::runtime_error("short write to " + path);
}

DeviceIdentifier DeviceIdentifier::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw std::runtime_error("cannot open " + path + " for reading");
  std::vector<std::uint8_t> data;
  std::uint8_t buf[65536];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
    data.insert(data.end(), buf, buf + n);
  std::fclose(f);
  net::ByteReader r(data);
  return Load(r);
}

double DeviceIdentifier::MeanOobAccuracy() const {
  double sum = 0.0;
  std::size_t counted = 0;
  for (const auto& entry : types_) {
    const double oob = entry.classifier.oob_accuracy();
    if (std::isnan(oob)) continue;
    sum += oob;
    ++counted;
  }
  return counted == 0 ? std::numeric_limits<double>::quiet_NaN()
                      : sum / static_cast<double>(counted);
}

std::size_t DeviceIdentifier::MemoryBytes() const {
  std::size_t total = sizeof(*this) + labels_.capacity() * sizeof(int);
  for (const auto& entry : types_) {
    total += entry.classifier.MemoryBytes();
    total += entry.flat.MemoryBytes();
    for (const auto& reference : entry.references) {
      total += reference.size() * sizeof(features::PacketFeatureVector);
    }
  }
  total += index_.table.MemoryBytes();
  for (const auto& per_type : index_.reference_ids)
    for (const auto& ids : per_type)
      total += ids.capacity() * sizeof(std::uint32_t);
  for (const auto& per_type : index_.reference_bags)
    for (const auto& bag : per_type)
      total += bag.capacity() * sizeof(std::pair<std::uint32_t, std::uint32_t>);
  return total;
}

}  // namespace sentinel::core

// The paper's two-stage device-type identification (Sect. IV-B):
//   1. one binary Random Forest per known device-type, trained one-vs-rest
//      with a 10:1 negative subsample (Sect. VI-B);
//   2. when several classifiers accept a fingerprint, Damerau-Levenshtein
//      edit-distance discrimination against 5 reference fingerprints per
//      candidate type; the lowest dissimilarity score in [0,5] wins.
// A fingerprint rejected by every classifier is reported as an unknown
// device-type (which the enforcement layer maps to strict isolation).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "features/edit_distance.h"
#include "features/fingerprint.h"
#include "ml/flat_forest.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "util/thread_pool.h"

namespace sentinel::core {

struct IdentifierConfig {
  /// Negative samples per positive sample when training each per-type
  /// classifier (paper: 10*n).
  std::size_t negative_ratio = 10;
  /// Reference fingerprints per candidate type for edit-distance
  /// discrimination (paper: 5).
  std::size_t discrimination_references = 5;
  /// Acceptance threshold on the forest's positive-class probability.
  /// Deliberately below 0.5: with the paper's 10:1 negative sampling, a
  /// device-type whose siblings share its hardware/firmware sees nearly as
  /// many indistinguishable negatives as positives, leaving the posterior
  /// for the shared behaviour region near n/(n + siblings). A majority
  /// vote would reject such fingerprints entirely ("new device"), whereas
  /// the paper reports them as multi-matches resolved by edit distance.
  double acceptance_threshold = 0.35;
  /// Open-set rejection gate on the discrimination stage: if even the best
  /// candidate's mean normalized edit distance exceeds this value, the
  /// fingerprint is "like" none of its accepting classifiers' references
  /// and is reported as a new device-type. (The paper relies on all
  /// classifiers rejecting; this gate additionally catches fingerprints
  /// that slip past loosely-fitting one-vs-rest forests.)
  double rejection_distance = 0.78;
  ml::RandomForestConfig forest;
  std::uint64_t seed = 17;
};

/// How exact the kernel's recorded evidence must be. Verdicts never depend
/// on it: both grades run the same accept test and the same tie-break.
///
///   IdentificationResult field     kExact             kCertifiedBounds
///   -----------------------------  -----------------  --------------------
///   type, matched_types,           exact              exact
///     bank_labels, tie_break_count
///   bank_probabilities             exact, bit-        exact, or after a
///                                  identical to       tree-scan early exit
///                                  IdentifyReference  a certified bound on
///                                                     the verdict's side of
///                                                     the threshold
///   dissimilarity_scores: winner   exact              exact
///   dissimilarity_scores: losers   exact, or a certified lower bound where
///                                  pruned; equal under both grades
///   edit_distance_count            distances computed (<= the reference's);
///                                  equal under both grades
///   classification_time,           measured; a batch gives each probe an
///     discrimination_time          even share of its one bank sweep
///
/// kExact is the default and what every reader of probabilities needs
/// (eval, drift, the quality monitor's top-1/top-2 margin, the decision
/// journal). kCertifiedBounds lets a caller that only reads verdicts (the
/// identification server) stop each classifier's tree scan as soon as the
/// verdict is certain.
enum class Provenance { kExact, kCertifiedBounds };

/// Identification outcome with the per-stage timing the paper reports in
/// Table IV. Which fields are exact depends on the Provenance requested.
struct IdentificationResult {
  /// Index into the trained type list, or nullopt for "new device-type".
  std::optional<int> type;
  /// Types whose classifier accepted the fingerprint (pre-discrimination).
  std::vector<int> matched_types;
  /// Full bank-scan provenance: every trained type's label and its
  /// classifier's positive-class probability, in bank order, plus the
  /// acceptance threshold in force — what `sentinelctl explain` and the
  /// flight recorder show as per-classifier votes.
  std::vector<int> bank_labels;
  std::vector<double> bank_probabilities;
  double acceptance_threshold = 0.0;
  /// Dissimilarity scores per matched type (empty if no type matched).
  std::vector<double> dissimilarity_scores;
  /// Number of edit-distance computations performed.
  std::size_t edit_distance_count = 0;
  /// Equal-dissimilarity tie-break coin flips taken while discriminating
  /// (pruning never eliminates a tie or the winner, so the count equals
  /// IdentifyReference's).
  std::size_t tie_break_count = 0;
  std::chrono::nanoseconds classification_time{0};
  std::chrono::nanoseconds discrimination_time{0};

  [[nodiscard]] bool IsKnown() const { return type.has_value(); }
};

/// One labelled training example: both fingerprint forms of one episode.
struct LabelledFingerprint {
  const features::Fingerprint* full = nullptr;     // F
  const features::FixedFingerprint* fixed = nullptr;  // F'
  int label = 0;
};

class DeviceIdentifier {
 public:
  explicit DeviceIdentifier(IdentifierConfig config = {})
      : config_(config) {}

  /// Opts this identifier into parallel execution: Train() spreads the
  /// per-type classifiers (and each classifier's trees) over the pool,
  /// IdentifyBatch() fans large batches out over it, and
  /// IdentifyReference() parallelizes its bank scan and edit distances.
  /// nullptr (the default) is fully sequential.
  /// Results are identical either way — parallel sections only fill
  /// per-index slots that are merged in deterministic order — so callers can
  /// flip this on without changing any output. The pool is runtime wiring,
  /// not model state: it is never serialized and a Load()ed identifier
  /// starts sequential.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }
  [[nodiscard]] util::ThreadPool* thread_pool() const { return pool_; }

  /// Attaches identification telemetry to `registry`: bank-scan accept and
  /// tie-break counters, edit-distance totals, classification /
  /// discrimination latency histograms, bank-training time and the
  /// type-count gauge. Like the thread pool, the registry is runtime
  /// wiring, not model state — it is never serialized, a Load()ed
  /// identifier starts uninstrumented, and with nullptr (the default)
  /// Identify() takes no clock reads beyond the per-stage timings it
  /// already reports in IdentificationResult. Timing never feeds back into
  /// classification, so results are identical with metrics on or off.
  void set_metrics(obs::MetricsRegistry* registry);
  [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Attaches the model-quality monitor: every Identify()/IdentifyBatch()
  /// verdict is reduced to a QualitySample (top-1 vs top-2 margin,
  /// tie-break count, unknown flag, winning dissimilarity) and recorded.
  /// Runtime wiring like the registry — never serialized, purely
  /// read-side, so verdicts and Save() bytes are bit-identical with a
  /// monitor attached or not. Binds the monitor to the trained label list
  /// now and again after every Train()/AddType().
  void set_quality_monitor(obs::QualityMonitor* monitor);
  [[nodiscard]] obs::QualityMonitor* quality_monitor() const {
    return quality_;
  }

  /// Trains one classifier per distinct label in `examples` and stores
  /// reference fingerprints for discrimination. Labels may be sparse; the
  /// identifier reports them back verbatim.
  void Train(const std::vector<LabelledFingerprint>& examples);

  /// Adds a single new device-type without retraining the others — the
  /// paper's "new classifier is trained without making any modification to
  /// the existing classifiers". Existing labels' negative pools are not
  /// revisited.
  void AddType(int label, const std::vector<LabelledFingerprint>& examples,
               const std::vector<LabelledFingerprint>& negatives);

  /// Identifies one fingerprint: IdentifyBatch() over a batch of one.
  [[nodiscard]] IdentificationResult Identify(
      const features::Fingerprint& full,
      const features::FixedFingerprint& fixed,
      Provenance provenance = Provenance::kExact) const;

  /// The straightforward two-stage implementation (per-forest scan, full
  /// edit distances on every candidate), kept as the differential oracle
  /// for the kernel and the baseline of the throughput bench.
  [[nodiscard]] IdentificationResult IdentifyReference(
      const features::Fingerprint& full,
      const features::FixedFingerprint& fixed) const;

  /// One probe of a batched identification: both fingerprint forms, owned
  /// by the caller for the duration of the call.
  struct FingerprintRef {
    const features::Fingerprint* full = nullptr;
    const features::FixedFingerprint* fixed = nullptr;
  };

  /// The identification kernel. Stage 1 sweeps the compiled bank
  /// type-outer over the probes' F' matrix, so each arena stays cache-hot
  /// across the batch; stage 2 scores each probe's accepted candidates
  /// against the cross-type reference index with bag lower bounds, a
  /// Myers upper bound and budget pruning, on per-thread scratch. Every
  /// probe draws its reference picks and tie-break coins from its own
  /// probe-hash-seeded RNG stream, so a probe's result does not depend on
  /// the batch around it or on the thread pool. With a pool attached,
  /// large batches fan stage 1 out over types and stage 2 over probes;
  /// a single probe always runs on the calling thread.
  [[nodiscard]] std::vector<IdentificationResult> IdentifyBatch(
      std::span<const FingerprintRef> probes,
      Provenance provenance = Provenance::kExact) const;

  [[nodiscard]] std::size_t type_count() const { return types_.size(); }
  /// Mean out-of-bag accuracy across the per-type classifiers — a model
  /// quality estimate available right after training, without a held-out
  /// set. NaN before training or after Load().
  [[nodiscard]] double MeanOobAccuracy() const;
  [[nodiscard]] const std::vector<int>& labels() const { return labels_; }
  [[nodiscard]] std::size_t MemoryBytes() const;

  /// Persists the trained model bundle (config, per-type forests and
  /// discrimination references); Load() restores a ready-to-serve
  /// identifier. This is how the IoTSSP stores its classifier bank.
  void Save(net::ByteWriter& w) const;
  static DeviceIdentifier Load(net::ByteReader& r);
  void SaveToFile(const std::string& path) const;
  static DeviceIdentifier LoadFromFile(const std::string& path);

 private:
  struct PerType {
    int label = 0;
    ml::RandomForest classifier;
    /// Arena-compiled form of `classifier`, rebuilt after every Train /
    /// AddType / Load (never serialized — Save() bytes are untouched by
    /// compilation).
    ml::FlatForest flat;
    /// Training fingerprints retained as discrimination references.
    std::vector<features::Fingerprint> references;
  };

  /// Cross-type reference index: one interner spanning every type's
  /// references, so Discriminate interns a probe once (not once per
  /// candidate type) and builds one Myers pattern reused across all
  /// candidates. Id equality over the shared table is still equivalent to
  /// packet equality, so every edit distance is unchanged. Rebuilt by
  /// CompileReferenceIndex(); never serialized.
  struct ReferenceIndex {
    features::PacketInterner table;
    /// Per types_ slot, per reference: its packets as ids in `table`'s
    /// space.
    std::vector<std::vector<std::vector<std::uint32_t>>> reference_ids;
    /// Per types_ slot, per reference: its interned ids as a sorted
    /// (id, count) multiset. Discriminate intersects a probe's id
    /// histogram with these bags to certify the OSA lower bound
    /// max(n, m) - |bag intersection| before committing to a DP (every
    /// kept element of an alignment consumes one occurrence from each
    /// side).
    std::vector<std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>>
        reference_bags;
  };

  /// Rebuilds index_ from types_. Called (sequentially) after Train /
  /// AddType / Load, alongside RebuildLabelIndex.
  void CompileReferenceIndex();

  /// Trains one per-type binary classifier. Rows are the pre-flattened F'
  /// vectors of the positives / candidate negatives (flattening is hoisted
  /// to Train()/AddType() so each example is converted once, not once per
  /// classifier that samples it).
  void TrainOne(PerType& entry,
                const std::vector<LabelledFingerprint>& positives,
                const std::vector<const std::vector<double>*>& positive_rows,
                const std::vector<const std::vector<double>*>& negative_rows,
                std::uint64_t salt);

  /// Metric handles resolved once in set_metrics(); all-null when no
  /// registry is attached, so each hot-path record is a single branch.
  struct IdentifierMetrics {
    obs::Histogram* bank_train_ns = nullptr;
    obs::Histogram* classification_ns = nullptr;
    obs::Histogram* discrimination_ns = nullptr;
    obs::Counter* identify_total = nullptr;
    obs::Counter* unknown_total = nullptr;
    obs::Counter* multi_match_total = nullptr;
    obs::Counter* accepts_total = nullptr;
    obs::Counter* edit_distance_total = nullptr;
    obs::Counter* tiebreak_total = nullptr;
    obs::Counter* editdist_pruned = nullptr;
    obs::Counter* bank_early_exit = nullptr;
    obs::Gauge* types = nullptr;
  };

  /// Reusable stage-2 buffers, one per thread (see Discriminate): no
  /// per-probe or per-candidate allocation once warm.
  struct DiscriminationScratch {
    features::EditDistanceScratch ed;
    /// Fisher-Yates index buffer for reference picks.
    std::vector<std::size_t> indices;
    /// Probe packet-id histogram over the index table, kept all-zero
    /// between probes (each probe zeroes exactly the ids it touched).
    std::vector<std::uint32_t> counts;
    /// Per-chosen-reference bag lower bounds for the current candidate.
    std::vector<std::size_t> bag_lb;
  };

  /// Stage 2 for one probe whose matched_types is non-empty: the
  /// edit-distance tie-break plus the open-set rejection gate. Sequential
  /// over candidates and references (the pruning budget accumulates left
  /// to right), so it is thread-pool independent.
  void Discriminate(const features::Fingerprint& full,
                    IdentificationResult& result) const;

  /// Reduces a finished result to a QualitySample and records it on the
  /// attached monitor (single branch when detached). Read-only: never
  /// mutates the result or feeds back into identification.
  void RecordQuality(const IdentificationResult& result) const;

  /// Rebuilds label_index_ from types_; called after Train / AddType /
  /// Load (runtime acceleration only, never serialized).
  void RebuildLabelIndex();

  IdentifierConfig config_;
  std::vector<PerType> types_;
  ReferenceIndex index_;
  std::vector<int> labels_;
  /// label -> index into types_, so discrimination resolves a candidate
  /// without a linear scan over the bank.
  std::unordered_map<int, std::size_t> label_index_;
  util::ThreadPool* pool_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::QualityMonitor* quality_ = nullptr;
  IdentifierMetrics handles_;
};

}  // namespace sentinel::core

// Serialization tests: fingerprint wire codec, tree/forest persistence and
// the identifier model bundle — save/load must preserve observable
// behaviour bit-for-bit, and corrupted inputs must be rejected.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>

#include "core/device_identifier.h"
#include "devices/simulator.h"
#include "features/fingerprint_codec.h"

namespace sentinel {
namespace {

TEST(FingerprintCodec, RoundTripExact) {
  devices::DeviceSimulator simulator(5);
  const auto episode = simulator.RunSetupEpisode(3);
  const auto fingerprint =
      devices::DeviceSimulator::ExtractFingerprint(episode);

  const auto bytes = features::SerializeFingerprint(fingerprint);
  const auto restored = features::ParseFingerprint(bytes);
  EXPECT_EQ(restored, fingerprint);
}

TEST(FingerprintCodec, EmptyFingerprint) {
  const features::Fingerprint empty;
  const auto restored =
      features::ParseFingerprint(features::SerializeFingerprint(empty));
  EXPECT_TRUE(restored.empty());
}

TEST(FingerprintCodec, FixedRoundTripExact) {
  devices::DeviceSimulator simulator(6);
  const auto episode = simulator.RunSetupEpisode(7);
  const auto fingerprint =
      devices::DeviceSimulator::ExtractFingerprint(episode);
  const auto fixed = features::FixedFingerprint::FromFingerprint(fingerprint);

  net::ByteWriter w;
  features::EncodeFixedFingerprint(w, fixed);
  net::ByteReader r(w.bytes());
  const auto restored = features::DecodeFixedFingerprint(r);
  EXPECT_EQ(restored, fixed);
  EXPECT_EQ(restored.packet_count(), fixed.packet_count());
}

TEST(FingerprintCodec, RejectsBadMagicAndVersion) {
  devices::DeviceSimulator simulator(7);
  const auto fingerprint = devices::DeviceSimulator::ExtractFingerprint(
      simulator.RunSetupEpisode(0));
  auto bytes = features::SerializeFingerprint(fingerprint);
  auto corrupt = bytes;
  corrupt[0] = 'X';
  EXPECT_THROW(features::ParseFingerprint(corrupt), net::CodecError);
  corrupt = bytes;
  corrupt[3] = 99;  // version
  EXPECT_THROW(features::ParseFingerprint(corrupt), net::CodecError);
  corrupt = bytes;
  corrupt.resize(corrupt.size() / 2);  // truncation
  EXPECT_THROW(features::ParseFingerprint(corrupt), net::CodecError);
}

// ---- Property-based: random fingerprints survive the codec -----------------

class FingerprintCodecProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(FingerprintCodecProperty, RandomRoundTrips) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<std::size_t> len(0, 40);
  std::uniform_int_distribution<std::uint32_t> value(0, 2000);
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<features::PacketFeatureVector> packets(len(rng));
    for (auto& packet : packets)
      for (auto& feature : packet) feature = value(rng);
    const auto fingerprint =
        features::Fingerprint::FromPacketVectors(packets);
    const auto restored = features::ParseFingerprint(
        features::SerializeFingerprint(fingerprint));
    EXPECT_EQ(restored, fingerprint);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FingerprintCodecProperty,
                         ::testing::Values(3u, 14u, 159u, 265u));

TEST(ForestSerialization, PredictionsIdenticalAfterRoundTrip) {
  const auto dataset = devices::GenerateFingerprintDataset(6, 77);
  ml::Dataset data(features::kFPrimeDim);
  for (std::size_t i = 0; i < dataset.size(); ++i)
    data.Add(dataset.fixed[i].ToVector(), dataset.labels[i] % 3);
  ml::RandomForestConfig config;
  config.tree_count = 12;
  ml::RandomForest forest;
  forest.Train(data, config);

  net::ByteWriter w;
  forest.Save(w);
  net::ByteReader r(w.bytes());
  const auto restored = ml::RandomForest::Load(r);
  EXPECT_EQ(restored.tree_count(), forest.tree_count());
  EXPECT_EQ(restored.class_count(), forest.class_count());
  for (std::size_t i = 0; i < dataset.size(); i += 7) {
    const auto row = dataset.fixed[i].ToVector();
    EXPECT_EQ(restored.Predict(row), forest.Predict(row));
    EXPECT_EQ(restored.PredictProba(row), forest.PredictProba(row));
  }
}

TEST(ForestSerialization, CorruptedTreeRejected) {
  const auto dataset = devices::GenerateFingerprintDataset(3, 78);
  ml::Dataset data(features::kFPrimeDim);
  for (std::size_t i = 0; i < dataset.size(); ++i)
    data.Add(dataset.fixed[i].ToVector(), dataset.labels[i] == 0 ? 1 : 0);
  ml::RandomForest forest;
  ml::RandomForestConfig config;
  config.tree_count = 3;
  forest.Train(data, config);
  net::ByteWriter w;
  forest.Save(w);
  auto bytes = std::move(w).Take();
  // Corrupt the first node's left-child index (header is 11 bytes of
  // forest framing + 15 bytes of tree framing): a huge positive index must
  // be rejected by the structural validation.
  bytes[26] = 0x7f;
  bytes[27] = 0x7f;
  net::ByteReader r(bytes);
  EXPECT_THROW(ml::RandomForest::Load(r), net::CodecError);
}

TEST(IdentifierSerialization, LoadedModelIdentifiesIdentically) {
  const auto dataset = devices::GenerateFingerprintDataset(8, 79);
  std::vector<core::LabelledFingerprint> train;
  for (std::size_t i = 0; i < dataset.size(); ++i)
    train.push_back(core::LabelledFingerprint{
        &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
  core::DeviceIdentifier identifier;
  identifier.Train(train);

  const auto path =
      (std::filesystem::temp_directory_path() / "sentinel_model.bin").string();
  identifier.SaveToFile(path);
  const auto restored = core::DeviceIdentifier::LoadFromFile(path);
  std::remove(path.c_str());

  EXPECT_EQ(restored.type_count(), identifier.type_count());
  EXPECT_EQ(restored.labels(), identifier.labels());

  devices::DeviceSimulator probe(4242);
  for (int t = 0; t < 27; t += 5) {
    const auto episode = probe.RunSetupEpisode(t);
    const auto full = devices::DeviceSimulator::ExtractFingerprint(episode);
    const auto fixed = features::FixedFingerprint::FromFingerprint(full);
    const auto a = identifier.Identify(full, fixed);
    const auto b = restored.Identify(full, fixed);
    EXPECT_EQ(a.IsKnown(), b.IsKnown());
    if (a.IsKnown()) {
      EXPECT_EQ(*a.type, *b.type);
    }
    EXPECT_EQ(a.matched_types, b.matched_types);
  }
}

/// A valid `SID` v1 header whose type count claims 0xFFFFFFF0 device-types
/// with no bytes behind it: 40 bytes that once sized a multi-terabyte
/// reserve() straight from the file.
std::vector<std::uint8_t> HostileTypeCountBundle() {
  net::ByteWriter w;
  w.WriteU8('S');
  w.WriteU8('I');
  w.WriteU8('D');
  w.WriteU8(1);
  w.WriteU32(10);                         // negative_ratio
  w.WriteU32(5);                          // discrimination_references
  w.WriteU64(350'000'000);                // acceptance_threshold * 1e9
  w.WriteU64(780'000'000);                // rejection_distance * 1e9
  w.WriteU64(17);                         // seed
  w.WriteU32(0xFFFFFFF0u);                // type_count
  return std::move(w).Take();
}

TEST(IdentifierSerialization, HostileTypeCountIsATypedError) {
  const auto bytes = HostileTypeCountBundle();
  ASSERT_EQ(bytes.size(), 40u);
  net::ByteReader r(bytes);
  EXPECT_THROW(core::DeviceIdentifier::Load(r), net::CodecError);

  const auto path =
      (std::filesystem::temp_directory_path() / "sentinel_hostile_model.bin")
          .string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  EXPECT_THROW(core::DeviceIdentifier::LoadFromFile(path), net::CodecError);
  std::remove(path.c_str());
}

TEST(IdentifierSerialization, HostileReferenceCountIsATypedError) {
  const auto dataset = devices::GenerateFingerprintDataset(2, 81);
  std::vector<core::LabelledFingerprint> train;
  for (std::size_t i = 0; i < dataset.size(); ++i)
    train.push_back(core::LabelledFingerprint{
        &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
  core::DeviceIdentifier identifier;
  identifier.Train(train);
  net::ByteWriter w;
  identifier.Save(w);
  auto bytes = std::move(w).Take();
  // The first type's reference count follows its label and forest; find
  // it by re-reading the bundle's framing.
  net::ByteReader scan(bytes);
  scan.Skip(4 + 4 + 4 + 8 + 8 + 8 + 4 + 4);
  (void)ml::RandomForest::Load(scan);
  const std::size_t at = scan.position();
  bytes.resize(at + 4);  // keep the count, drop every reference behind it
  bytes[at] = 0xFF;
  bytes[at + 1] = 0xFF;
  bytes[at + 2] = 0xFF;
  bytes[at + 3] = 0xF0;
  net::ByteReader r(bytes);
  EXPECT_THROW(core::DeviceIdentifier::Load(r), net::CodecError);
}

TEST(ForestSerialization, HostileTreeCountIsATypedError) {
  net::ByteWriter w;
  w.WriteU8('R');
  w.WriteU8('F');
  w.WriteU8(1);
  w.WriteU32(2);            // class_count
  w.WriteU32(0xFFFFFFFFu);  // tree_count
  net::ByteReader r(w.bytes());
  EXPECT_THROW(ml::RandomForest::Load(r), net::CodecError);
}

TEST(ForestSerialization, HostileNodeAndLeafCountsAreTypedErrors) {
  for (const bool hostile_nodes : {true, false}) {
    net::ByteWriter w;
    w.WriteU8('D');
    w.WriteU8('T');
    w.WriteU8(1);
    w.WriteU32(2);  // class_count
    w.WriteU32(1);  // depth
    w.WriteU32(hostile_nodes ? 0xFFFFFFFFu : 0u);  // node_count
    w.WriteU32(0xFFFFFFFFu);                       // leaf probability count
    net::ByteReader r(w.bytes());
    EXPECT_THROW(ml::DecisionTree::Load(r), net::CodecError);
  }
}

TEST(IdentifierSerialization, MissingFileThrows) {
  EXPECT_THROW(core::DeviceIdentifier::LoadFromFile("/no/such/model.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace sentinel

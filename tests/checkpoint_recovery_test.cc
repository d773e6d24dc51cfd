// Checkpoint hardening tests: the version-2 on-disk format carries a
// per-part CRC-32, so truncation and bit flips are detected and reported
// as clean IOErrors instead of deserializing garbage, and
// LoadCheckpointOrRecompute falls back to lineage recomputation (and heals
// the damaged checkpoint) exactly like Spark recomputes a lost block.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/st_serde.h"
#include "engine/checkpoint.h"
#include "engine/rdd.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "spatial_rdd/value_serde.h"
#include "test_util.h"

namespace stark {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

class CheckpointRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DefaultFailPoints().DisarmAll();
    dir_ = test::UniqueTempPath("ckpt_recovery");
    ASSERT_EQ(std::system(("rm -rf " + dir_ + " && mkdir -p " + dir_).c_str()),
              0);
  }
  void TearDown() override { fault::DefaultFailPoints().DisarmAll(); }

  std::vector<int64_t> Values() const {
    std::vector<int64_t> v;
    for (int64_t i = 0; i < 200; ++i) v.push_back(i * 7 - 3);
    return v;
  }

  RDD<int64_t> Lineage() { return MakeRDD(&ctx_, Values(), 4); }

  void WriteHealthyCheckpoint() {
    ASSERT_TRUE(Checkpoint(Lineage(), dir_).ok());
  }

  std::string PartPath(int p) const {
    return dir_ + "/part-" + std::to_string(p) + ".bin";
  }

  Context ctx_{4};
  std::string dir_;
};

TEST_F(CheckpointRecoveryTest, RoundTripsVersion2Format) {
  WriteHealthyCheckpoint();
  auto loaded = LoadCheckpoint<int64_t>(&ctx_, dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().NumPartitions(), 4u);
  EXPECT_EQ(loaded.ValueOrDie().Collect(), Values());
}

TEST_F(CheckpointRecoveryTest, TruncatedPartIsACleanIOError) {
  WriteHealthyCheckpoint();
  std::vector<char> bytes = ReadAll(PartPath(0));
  ASSERT_GT(bytes.size(), 16u);
  bytes.resize(bytes.size() / 2);  // drop the tail, including the CRC
  WriteAll(PartPath(0), bytes);

  const uint64_t crc_errors_before = CounterValue("engine.checkpoint.crc_errors");
  auto loaded = LoadCheckpoint<int64_t>(&ctx_, dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("part-0.bin"), std::string::npos);
  EXPECT_GT(CounterValue("engine.checkpoint.crc_errors"), crc_errors_before);
}

TEST_F(CheckpointRecoveryTest, TruncatedBelowHeaderIsACleanIOError) {
  WriteHealthyCheckpoint();
  WriteAll(PartPath(1), std::vector<char>{'S', 'T'});
  auto loaded = LoadCheckpoint<int64_t>(&ctx_, dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos);
}

TEST_F(CheckpointRecoveryTest, BitFlipIsDetectedByChecksum) {
  WriteHealthyCheckpoint();
  std::vector<char> bytes = ReadAll(PartPath(2));
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-payload
  WriteAll(PartPath(2), bytes);

  auto loaded = LoadCheckpoint<int64_t>(&ctx_, dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

// A part whose element count exceeds its size — with a valid CRC, so the
// checksum does not catch it — must be a clean IOError, not a
// length_error/bad_alloc thrown out of reserve().
TEST_F(CheckpointRecoveryTest, ElementCountBeyondPartSizeIsACleanIOError) {
  WriteHealthyCheckpoint();
  BinaryWriter part;
  part.WriteU32(kCheckpointPartMagic);
  part.WriteU64(uint64_t{1} << 60);
  part.WriteU64(0);
  part.WriteU32(Crc32(part.buffer().data(), part.buffer().size()));
  WriteAll(PartPath(0), part.buffer());

  auto loaded = LoadCheckpoint<int64_t>(&ctx_, dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("count"), std::string::npos);
}

// A spatial part whose count the payload could hold at one byte per
// element, but not at the ten bytes every STObject takes, fails the count
// check with a typed IOError before reserve().
TEST_F(CheckpointRecoveryTest, CountBeyondTheMinimumElementSizeIsAnIOError) {
  using Element = std::pair<STObject, int64_t>;
  BinaryWriter meta;
  meta.WriteU32(kCheckpointMetaMagic);
  meta.WriteU32(kCheckpointVersion);
  meta.WriteU64(1);
  WriteAll(dir_ + "/_meta", meta.buffer());
  BinaryWriter part;
  part.WriteU32(kCheckpointPartMagic);
  part.WriteU64(100);  // 500 bytes follow: room for 50 elements at most
  for (int i = 0; i < 500; ++i) part.WriteU8(0);
  part.WriteU32(Crc32(part.buffer().data(), part.buffer().size()));
  WriteAll(PartPath(0), part.buffer());

  auto loaded = LoadCheckpoint<Element>(&ctx_, dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("element count"),
            std::string::npos)
      << loaded.status().ToString();
}

// Spatial (STObject, V) pairs use the same part format as every other
// element type and come back bit-identically (serialized bytes compared,
// since STObject::operator== is NaN-blind).
TEST_F(CheckpointRecoveryTest, SpatialPairsRoundTripBitIdentically) {
  using Element = std::pair<STObject, int64_t>;
  const std::vector<Geometry> pop = test::RandomPopulation(/*seed=*/135, 60);
  std::vector<Element> data;
  for (size_t i = 0; i < pop.size(); ++i) {
    STObject obj = i % 2 == 0 ? STObject(pop[i])
                              : STObject(pop[i], static_cast<Instant>(i));
    data.emplace_back(std::move(obj), static_cast<int64_t>(i));
  }
  data.emplace_back(STObject(Geometry::MakePoint({std::nan(""), 1.0})), -1);
  ASSERT_TRUE(Checkpoint(MakeRDD(&ctx_, data, 3), dir_).ok());

  auto loaded = LoadCheckpoint<Element>(&ctx_, dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<Element> got = loaded.ValueOrDie().Collect();
  ASSERT_EQ(got.size(), data.size());
  auto bytes = [](const STObject& obj) {
    BinaryWriter w;
    WriteSTObject(&w, obj);
    return w.buffer();
  };
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(got[i].second, data[i].second);
    ASSERT_EQ(bytes(got[i].first), bytes(data[i].first)) << "row " << i;
  }
}

TEST_F(CheckpointRecoveryTest, MissingMetaIsAnError) {
  WriteHealthyCheckpoint();
  ASSERT_EQ(std::remove((dir_ + "/_meta").c_str()), 0);
  EXPECT_FALSE(LoadCheckpoint<int64_t>(&ctx_, dir_).ok());
}

TEST_F(CheckpointRecoveryTest, MissingPartIsAnError) {
  WriteHealthyCheckpoint();
  ASSERT_EQ(std::remove(PartPath(3).c_str()), 0);
  EXPECT_FALSE(LoadCheckpoint<int64_t>(&ctx_, dir_).ok());
}

TEST_F(CheckpointRecoveryTest, BadMetaMagicOrVersionIsAnError) {
  WriteHealthyCheckpoint();
  std::vector<char> meta = ReadAll(dir_ + "/_meta");

  std::vector<char> bad_magic = meta;
  bad_magic[0] ^= 0x01;
  WriteAll(dir_ + "/_meta", bad_magic);
  auto loaded = LoadCheckpoint<int64_t>(&ctx_, dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);

  std::vector<char> bad_version = meta;
  bad_version[4] = 99;  // version field follows the u32 magic
  WriteAll(dir_ + "/_meta", bad_version);
  loaded = LoadCheckpoint<int64_t>(&ctx_, dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST_F(CheckpointRecoveryTest, RecomputesFromLineageWhenPartIsCorrupt) {
  WriteHealthyCheckpoint();
  std::vector<char> bytes = ReadAll(PartPath(0));
  bytes[bytes.size() / 3] ^= 0x08;
  WriteAll(PartPath(0), bytes);

  const uint64_t recovered_before = CounterValue("engine.checkpoint.recovered");
  auto rdd = LoadCheckpointOrRecompute<int64_t>(&ctx_, dir_, Lineage());
  ASSERT_TRUE(rdd.ok()) << rdd.status().ToString();
  EXPECT_EQ(rdd.ValueOrDie().Collect(), Values());
  EXPECT_EQ(CounterValue("engine.checkpoint.recovered") - recovered_before,
            1u);

  // Recovery healed the checkpoint: a plain load now succeeds again.
  auto reloaded = LoadCheckpoint<int64_t>(&ctx_, dir_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.ValueOrDie().Collect(), Values());
}

TEST_F(CheckpointRecoveryTest, RecomputesWhenCheckpointNeverExisted) {
  const uint64_t recovered_before = CounterValue("engine.checkpoint.recovered");
  auto rdd = LoadCheckpointOrRecompute<int64_t>(&ctx_, dir_, Lineage());
  ASSERT_TRUE(rdd.ok()) << rdd.status().ToString();
  EXPECT_EQ(rdd.ValueOrDie().Collect(), Values());
  EXPECT_EQ(CounterValue("engine.checkpoint.recovered") - recovered_before,
            1u);
  // ...and wrote the checkpoint for the next reader.
  EXPECT_TRUE(LoadCheckpoint<int64_t>(&ctx_, dir_).ok());
}

TEST_F(CheckpointRecoveryTest, HealthyCheckpointSkipsRecomputation) {
  WriteHealthyCheckpoint();
  const uint64_t recovered_before = CounterValue("engine.checkpoint.recovered");
  auto rdd = LoadCheckpointOrRecompute<int64_t>(&ctx_, dir_, Lineage());
  ASSERT_TRUE(rdd.ok());
  EXPECT_EQ(CounterValue("engine.checkpoint.recovered"), recovered_before);
}

TEST_F(CheckpointRecoveryTest, PersistentReadFaultFallsBackToLineage) {
  WriteHealthyCheckpoint();
  ASSERT_TRUE(fault::DefaultFailPoints()
                  .ArmFromSpec("engine.checkpoint.read=every:1")
                  .ok());
  auto rdd = LoadCheckpointOrRecompute<int64_t>(&ctx_, dir_, Lineage());
  ASSERT_TRUE(rdd.ok()) << rdd.status().ToString();
  EXPECT_EQ(rdd.ValueOrDie().Collect(), Values());
}

TEST_F(CheckpointRecoveryTest, PairElementsSurviveCorruptionRecovery) {
  std::vector<std::pair<std::string, int64_t>> data;
  for (int i = 0; i < 50; ++i) data.emplace_back("k" + std::to_string(i), i);
  auto rdd = MakeRDD(&ctx_, data, 3);
  ASSERT_TRUE(Checkpoint(rdd, dir_).ok());

  std::vector<char> bytes = ReadAll(PartPath(1));
  bytes[10] ^= 0xFF;
  WriteAll(PartPath(1), bytes);

  auto recovered = LoadCheckpointOrRecompute<std::pair<std::string, int64_t>>(
      &ctx_, dir_, rdd);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto out = recovered.ValueOrDie().Collect();
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace stark

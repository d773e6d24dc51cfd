// Seeded mutation fuzzer for the persistent index files: the STIX meta file
// and the STIP part files that IndexedSpatialRDD::Save writes. Every
// mutated index must load ok or fail with a typed IOError — never throw,
// crash or hang (the ASan/UBSan job runs this) — and every index that loads
// must answer a window query and a full scan. No external fuzzing framework:
// a fixed budget of mutations drawn from one seed.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "common/rng.h"
#include "core/st_serde.h"
#include "geometry/wkt.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {
namespace {

using Element = std::pair<STObject, int64_t>;
using Index = IndexedSpatialRDD<int64_t>;

/// A u64 field of one index file, at a byte offset.
struct Field {
  std::string file;
  size_t offset;
};

/// Rows of every kind the part format encodes: points, multipoints, lines,
/// polygons with and without holes and multipolygons, timed or not.
std::vector<Element> FuzzRows() {
  const char* const wkts[] = {
      "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))",
      "MULTIPOLYGON (((20 20, 22 20, 22 22, 20 20)), ((25 25, 27 25, 27 27, "
      "25 25)))",
      "LINESTRING (30 30, 35 31, 40 38)",
      "MULTIPOINT (50 50, 52 53, 55 51)",
  };
  std::vector<Element> rows;
  for (const char* wkt : wkts) {
    rows.emplace_back(STObject(ParseWkt(wkt).ValueOrDie(), 5, 9),
                      static_cast<int64_t>(rows.size()));
  }
  for (const Geometry& g : test::RandomPopulation(/*seed=*/31337, 60)) {
    STObject obj = rows.size() % 3 == 0 ? STObject(g, 100) : STObject(g);
    rows.emplace_back(std::move(obj), static_cast<int64_t>(rows.size()));
  }
  return rows;
}

/// The u64 fields of a saved index: the meta's part count and order, each
/// part's row count, and per row its coordinate or polygon count and, for
/// polygons, the shell's coordinate count. Offsets are found by writing the
/// rows again in the saved (ForEach) order.
std::vector<Field> CountFields(const Index& index) {
  std::vector<Field> fields = {{"index.meta", 4}, {"index.meta", 12}};
  const auto parts = index.trees().CollectPartitions();
  for (size_t p = 0; p < parts.size(); ++p) {
    const std::string file = "part-" + std::to_string(p) + ".idx";
    fields.push_back({file, 4});
    size_t offset = 12;  // magic + row count
    for (const auto& tree : parts[p]) {
      tree->ForEach([&](const Envelope&, const Element& e) {
        fields.push_back({file, offset + 1});
        const GeometryType type = e.first.geo().type();
        if (type == GeometryType::kPolygon ||
            type == GeometryType::kMultiPolygon) {
          fields.push_back({file, offset + 9});
        }
        BinaryWriter row;
        WriteSTObject(&row, e.first);
        Serde<int64_t>::Write(&row, e.second);
        offset += row.buffer().size();
      });
    }
  }
  return fields;
}

TEST(IndexPartFuzzTest, MutatedIndexesLoadOkOrFailWithATypedIOError) {
  Context ctx(2);
  const std::string dir = test::UniqueTempPath("stark_index_fuzz");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Index saved =
      SpatialRDD<int64_t>::FromVector(&ctx, FuzzRows(), 3).Index(4);
  ASSERT_TRUE(saved.Save(dir).ok());

  std::map<std::string, std::vector<char>> original;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    original[name] = ReadFileBytes(entry.path().string()).ValueOrDie();
  }
  std::vector<std::string> files;
  for (const auto& [name, bytes] : original) files.push_back(name);
  const std::vector<Field> fields = CountFields(saved);
  const uint64_t huge[] = {uint64_t{1} << 60, uint64_t{1} << 40,
                           uint64_t{1} << 32, UINT64_MAX,
                           uint64_t{INT64_MAX}, 1000};

  Rng rng(20261018);
  size_t loaded_ok = 0;
  size_t rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const int kind = static_cast<int>(rng.UniformInt(0, 2));
    std::string file;
    std::vector<char> bytes;
    if (kind == 2) {  // overwrite a count field with a huge value
      const Field& f = fields[rng.UniformInt(0, fields.size() - 1)];
      file = f.file;
      bytes = original.at(file);
      BinaryWriter value;
      value.WriteU64(huge[rng.UniformInt(0, std::size(huge) - 1)]);
      ASSERT_LE(f.offset + value.buffer().size(), bytes.size()) << file;
      std::memcpy(bytes.data() + f.offset, value.buffer().data(),
                  value.buffer().size());
    } else {
      file = files[rng.UniformInt(0, files.size() - 1)];
      bytes = original.at(file);
      if (kind == 0) {  // flip 1-4 bytes
        for (int64_t m = rng.UniformInt(1, 4); m > 0; --m) {
          bytes[rng.UniformInt(0, bytes.size() - 1)] ^=
              static_cast<char>(rng.UniformInt(1, 255));
        }
      } else {  // truncate
        bytes.resize(rng.UniformInt(0, bytes.size() - 1));
      }
    }
    const std::string path = dir + "/" + file;
    ASSERT_TRUE(WriteFileBytes(path, bytes).ok());

    SCOPED_TRACE("trial " + std::to_string(trial) + " kind " +
                 std::to_string(kind) + " file " + file);
    Result<Index> loaded = Status::UnknownError("unset");
    ASSERT_NO_THROW(loaded = Index::Load(&ctx, dir));
    if (loaded.ok()) {
      ++loaded_ok;
      size_t scanned = 0;
      size_t hits = 0;
      for (const auto& trees :
           loaded.ValueOrDie().trees().CollectPartitions()) {
        for (const auto& tree : trees) {
          tree->ForEach([&](const Envelope&, const Element&) { ++scanned; });
          tree->Query(Envelope(0, 0, 50, 50),
                      [&](const Envelope&, const Element&) { ++hits; });
        }
      }
      EXPECT_LE(hits, scanned);
    } else {
      ++rejected;
      EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
          << loaded.status().ToString();
    }
    ASSERT_TRUE(WriteFileBytes(path, original.at(file)).ok());
  }
  // The budget exercises both outcomes.
  EXPECT_GT(loaded_ok, 0u);
  EXPECT_GT(rejected, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stark

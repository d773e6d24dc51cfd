// Tests for the binary serialization of geometries and STObjects.
#include <gtest/gtest.h>

#include "core/st_serde.h"
#include "geometry/wkt.h"

namespace stark {
namespace {

Geometry G(const char* wkt) { return ParseWkt(wkt).ValueOrDie(); }

void RoundTripGeometry(const Geometry& g) {
  BinaryWriter w;
  WriteGeometry(&w, g);
  BinaryReader r(w.buffer());
  auto back = ReadGeometry(&r);
  ASSERT_TRUE(back.ok()) << g.ToWkt() << ": " << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie(), g) << g.ToWkt();
  EXPECT_TRUE(r.AtEnd());
}

TEST(GeometrySerdeTest, AllTypesRoundTrip) {
  RoundTripGeometry(G("POINT (1.25 -7)"));
  RoundTripGeometry(G("MULTIPOINT (1 2, 3 4, 5 6)"));
  RoundTripGeometry(G("LINESTRING (0 0, 1 1, 2 0)"));
  RoundTripGeometry(G("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"));
  RoundTripGeometry(
      G("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))"));
  RoundTripGeometry(G(
      "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))"));
}

TEST(STObjectSerdeTest, RoundTripWithAndWithoutTime) {
  for (const STObject& obj :
       {STObject::FromWkt("POINT (3 4)").ValueOrDie(),
        STObject::FromWkt("POINT (3 4)", 77).ValueOrDie(),
        STObject::FromWkt("POLYGON ((0 0, 2 0, 2 2, 0 0))", 5, 9)
            .ValueOrDie()}) {
    BinaryWriter w;
    WriteSTObject(&w, obj);
    BinaryReader r(w.buffer());
    auto back = ReadSTObject(&r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.ValueOrDie(), obj);
  }
}

TEST(STObjectSerdeTest, CorruptTagFails) {
  BinaryWriter w;
  w.WriteU8(99);  // invalid geometry tag
  BinaryReader r(w.buffer());
  EXPECT_FALSE(ReadGeometry(&r).ok());
}

TEST(STObjectSerdeTest, TruncatedPayloadFails) {
  BinaryWriter w;
  WriteSTObject(&w, STObject::FromWkt("POINT (1 2)", 3).ValueOrDie());
  std::vector<char> buf = w.buffer();
  buf.resize(buf.size() / 2);
  BinaryReader r(buf);
  EXPECT_FALSE(ReadSTObject(&r).ok());
}

TEST(STObjectSerdeTest, BogusCoordinateCountIsRejected) {
  BinaryWriter w;
  w.WriteU8(0);                       // POINT tag
  w.WriteU64(1ull << 60);             // absurd coordinate count
  BinaryReader r(w.buffer());
  EXPECT_FALSE(ReadGeometry(&r).ok());
}

TEST(STObjectSerdeTest, PointWithoutExactlyOneCoordinateIsRejected) {
  for (const uint64_t count : {uint64_t{0}, uint64_t{2}}) {
    BinaryWriter w;
    w.WriteU8(0);  // POINT tag
    w.WriteU64(count);
    for (uint64_t i = 0; i < count; ++i) {
      w.WriteDouble(1.0);
      w.WriteDouble(2.0);
    }
    BinaryReader r(w.buffer());
    auto back = ReadGeometry(&r);
    ASSERT_FALSE(back.ok()) << count;
    EXPECT_EQ(back.status().code(), StatusCode::kIOError);
    EXPECT_NE(back.status().message().find("bad point payload"),
              std::string::npos);
  }
}

TEST(STObjectSerdeTest, PointMissingItsCoordinateIsRejected) {
  BinaryWriter w;
  w.WriteU8(0);  // POINT tag
  w.WriteU64(1);
  w.WriteDouble(1.0);  // y is missing
  BinaryReader r(w.buffer());
  auto back = ReadGeometry(&r);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIOError);
}

TEST(EnvelopeSerdeTest, RoundTrip) {
  for (const Envelope& env :
       {Envelope(), Envelope(-1, -2, 3, 4), Envelope(0, 0, 0, 0)}) {
    BinaryWriter w;
    WriteEnvelope(&w, env);
    BinaryReader r(w.buffer());
    auto back = ReadEnvelope(&r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.ValueOrDie(), env);
  }
}

}  // namespace
}  // namespace stark

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

// A polygon count used to reach reserve() unchecked: 1<<60 threw
// std::length_error and 1<<40 std::bad_alloc instead of an IOError.
TEST(STObjectSerdeTest, BogusPolygonCountIsRejected) {
  for (const uint8_t tag : {uint8_t{3}, uint8_t{4}}) {  // POLYGON, MULTI
    for (const uint64_t count :
         {uint64_t{1} << 60, uint64_t{1} << 40, UINT64_MAX}) {
      BinaryWriter w;
      w.WriteU8(tag);
      w.WriteU64(count);
      BinaryReader r(w.buffer());
      Result<Geometry> back = Status::UnknownError("unset");
      EXPECT_NO_THROW(back = ReadGeometry(&r));
      ASSERT_FALSE(back.ok()) << count;
      EXPECT_EQ(back.status().code(), StatusCode::kIOError);
      EXPECT_NE(back.status().message().find("polygon"), std::string::npos);
    }
  }
}

// Payloads that decode but make no valid geometry used to surface the
// constructor's InvalidArgument; a corrupt stream is an IOError.
TEST(STObjectSerdeTest, InvalidGeometryPayloadIsAnIOError) {
  auto coords = [](BinaryWriter* w, uint64_t n) {
    w->WriteU64(n);
    for (uint64_t i = 0; i < n; ++i) {
      w->WriteDouble(static_cast<double>(i));
      w->WriteDouble(1.0);
    }
  };
  BinaryWriter empty_multipoint;
  empty_multipoint.WriteU8(1);
  coords(&empty_multipoint, 0);
  BinaryWriter one_point_line;
  one_point_line.WriteU8(2);
  coords(&one_point_line, 1);
  BinaryWriter two_point_ring;
  two_point_ring.WriteU8(3);
  two_point_ring.WriteU64(1);  // one polygon
  coords(&two_point_ring, 2);
  two_point_ring.WriteU64(0);  // no holes
  BinaryWriter no_polygons;
  no_polygons.WriteU8(4);
  no_polygons.WriteU64(0);
  for (const BinaryWriter* w :
       {&empty_multipoint, &one_point_line, &two_point_ring, &no_polygons}) {
    BinaryReader r(w->buffer());
    auto back = ReadGeometry(&r);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kIOError)
        << back.status().ToString();
  }
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

#include "core/st_serde.h"

namespace stark {

namespace {

void WriteCoordinates(BinaryWriter* writer,
                      const std::vector<Coordinate>& coords) {
  writer->WriteU64(coords.size());
  for (const auto& c : coords) {
    writer->WriteDouble(c.x);
    writer->WriteDouble(c.y);
  }
}

/// Reads a coordinate count and checks the stream holds that many pairs.
Result<uint64_t> ReadCoordinateCount(BinaryReader* reader) {
  STARK_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  // Divide instead of multiplying so absurd counts cannot overflow.
  if (n > reader->Remaining() / (2 * sizeof(double))) {
    return Status::IOError("coordinate list exceeds stream");
  }
  return n;
}

Result<std::vector<Coordinate>> ReadCoordinates(BinaryReader* reader) {
  STARK_ASSIGN_OR_RETURN(uint64_t n, ReadCoordinateCount(reader));
  std::vector<Coordinate> coords(n);
  for (uint64_t i = 0; i < n; ++i) {
    STARK_ASSIGN_OR_RETURN(coords[i].x, reader->ReadDouble());
    STARK_ASSIGN_OR_RETURN(coords[i].y, reader->ReadDouble());
  }
  return coords;
}

/// A payload that decodes but makes no valid geometry (a one-point line, a
/// ring too short to close) is corrupt stream data like any other: an
/// IOError, not the constructor's InvalidArgument.
Result<Geometry> StreamGeometry(Result<Geometry> made) {
  if (made.ok()) return made;
  return Status::IOError("bad geometry payload in stream: " +
                         made.status().message());
}

}  // namespace

void WriteGeometry(BinaryWriter* writer, const Geometry& geo) {
  writer->WriteU8(static_cast<uint8_t>(geo.type()));
  switch (geo.type()) {
    case GeometryType::kPoint:
      // The same bytes as a one-element coordinate list.
      writer->WriteU64(1);
      writer->WriteDouble(geo.AsPoint().x);
      writer->WriteDouble(geo.AsPoint().y);
      break;
    case GeometryType::kMultiPoint:
    case GeometryType::kLineString:
      WriteCoordinates(writer, geo.coordinates());
      break;
    case GeometryType::kPolygon:
    case GeometryType::kMultiPolygon: {
      writer->WriteU64(geo.polygons().size());
      for (const auto& poly : geo.polygons()) {
        WriteCoordinates(writer, poly.shell);
        writer->WriteU64(poly.holes.size());
        for (const auto& hole : poly.holes) WriteCoordinates(writer, hole);
      }
      break;
    }
  }
}

Result<Geometry> ReadGeometry(BinaryReader* reader) {
  STARK_ASSIGN_OR_RETURN(uint8_t tag, reader->ReadU8());
  if (tag > static_cast<uint8_t>(GeometryType::kMultiPolygon)) {
    return Status::IOError("bad geometry tag in stream");
  }
  const auto type = static_cast<GeometryType>(tag);
  switch (type) {
    case GeometryType::kPoint: {
      // The point is read in place: no one-element coordinate vector.
      STARK_ASSIGN_OR_RETURN(uint64_t n, ReadCoordinateCount(reader));
      if (n != 1) return Status::IOError("bad point payload");
      STARK_ASSIGN_OR_RETURN(double x, reader->ReadDouble());
      STARK_ASSIGN_OR_RETURN(double y, reader->ReadDouble());
      return Geometry::MakePoint(x, y);
    }
    case GeometryType::kMultiPoint: {
      STARK_ASSIGN_OR_RETURN(auto coords, ReadCoordinates(reader));
      return StreamGeometry(Geometry::MakeMultiPoint(std::move(coords)));
    }
    case GeometryType::kLineString: {
      STARK_ASSIGN_OR_RETURN(auto coords, ReadCoordinates(reader));
      return StreamGeometry(Geometry::MakeLineString(std::move(coords)));
    }
    case GeometryType::kPolygon:
    case GeometryType::kMultiPolygon: {
      STARK_ASSIGN_OR_RETURN(uint64_t n_polys, reader->ReadU64());
      // Every polygon holds at least its shell count and its hole count,
      // 8 bytes each, so a larger count is corrupt and must not reach
      // reserve().
      if (n_polys > reader->Remaining() / (2 * sizeof(uint64_t))) {
        return Status::IOError("polygon list exceeds stream");
      }
      std::vector<PolygonData> polys;
      polys.reserve(n_polys);
      for (uint64_t i = 0; i < n_polys; ++i) {
        PolygonData poly;
        STARK_ASSIGN_OR_RETURN(poly.shell, ReadCoordinates(reader));
        STARK_ASSIGN_OR_RETURN(uint64_t n_holes, reader->ReadU64());
        for (uint64_t h = 0; h < n_holes; ++h) {
          STARK_ASSIGN_OR_RETURN(Ring hole, ReadCoordinates(reader));
          poly.holes.push_back(std::move(hole));
        }
        polys.push_back(std::move(poly));
      }
      if (type == GeometryType::kPolygon) {
        if (polys.size() != 1) return Status::IOError("bad polygon payload");
        return StreamGeometry(Geometry::MakePolygon(
            std::move(polys[0].shell), std::move(polys[0].holes)));
      }
      return StreamGeometry(Geometry::MakeMultiPolygon(std::move(polys)));
    }
  }
  return Status::IOError("unreachable geometry tag");
}

void WriteSTObject(BinaryWriter* writer, const STObject& obj) {
  WriteGeometry(writer, obj.geo());
  writer->WriteBool(obj.HasTime());
  if (obj.HasTime()) {
    writer->WriteI64(obj.time()->start());
    writer->WriteI64(obj.time()->end());
  }
}

Result<STObject> ReadSTObject(BinaryReader* reader) {
  STARK_ASSIGN_OR_RETURN(Geometry geo, ReadGeometry(reader));
  STARK_ASSIGN_OR_RETURN(bool has_time, reader->ReadBool());
  if (!has_time) return STObject(std::move(geo));
  STARK_ASSIGN_OR_RETURN(int64_t start, reader->ReadI64());
  STARK_ASSIGN_OR_RETURN(int64_t end, reader->ReadI64());
  if (start > end) return Status::IOError("bad interval in stream");
  return STObject(std::move(geo), start, end);
}

void WriteEnvelope(BinaryWriter* writer, const Envelope& env) {
  writer->WriteBool(env.IsEmpty());
  if (!env.IsEmpty()) {
    writer->WriteDouble(env.min_x());
    writer->WriteDouble(env.min_y());
    writer->WriteDouble(env.max_x());
    writer->WriteDouble(env.max_y());
  }
}

Result<Envelope> ReadEnvelope(BinaryReader* reader) {
  STARK_ASSIGN_OR_RETURN(bool empty, reader->ReadBool());
  if (empty) return Envelope();
  STARK_ASSIGN_OR_RETURN(double min_x, reader->ReadDouble());
  STARK_ASSIGN_OR_RETURN(double min_y, reader->ReadDouble());
  STARK_ASSIGN_OR_RETURN(double max_x, reader->ReadDouble());
  STARK_ASSIGN_OR_RETURN(double max_y, reader->ReadDouble());
  return Envelope(min_x, min_y, max_x, max_y);
}

}  // namespace stark

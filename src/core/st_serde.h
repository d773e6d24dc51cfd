/// \file st_serde.h
/// Binary serialization of Geometry, TemporalInterval and STObject values —
/// the wire format of STARK's persistent index mode ("Spark's method to
/// save binary objects", substituted by local files).
#ifndef STARK_CORE_ST_SERDE_H_
#define STARK_CORE_ST_SERDE_H_

#include "common/serde.h"
#include "core/stobject.h"

namespace stark {

/// Appends \p geo to \p writer.
void WriteGeometry(BinaryWriter* writer, const Geometry& geo);

/// Reads one Geometry previously written with WriteGeometry.
Result<Geometry> ReadGeometry(BinaryReader* reader);

/// Appends \p obj (geometry + optional interval) to \p writer.
void WriteSTObject(BinaryWriter* writer, const STObject& obj);

/// Reads one STObject previously written with WriteSTObject.
Result<STObject> ReadSTObject(BinaryReader* reader);

/// Appends an Envelope to \p writer.
void WriteEnvelope(BinaryWriter* writer, const Envelope& env);

/// Reads one Envelope previously written with WriteEnvelope.
Result<Envelope> ReadEnvelope(BinaryReader* reader);

/// Serde specialization so RDDs of STObjects (and pairs containing them)
/// can be checkpointed with engine/checkpoint.h.
template <>
struct Serde<STObject> {
  static void Write(BinaryWriter* w, const STObject& v) {
    WriteSTObject(w, v);
  }
  static Result<STObject> Read(BinaryReader* r) { return ReadSTObject(r); }
};

/// An STObject takes at least its geometry tag, a u64 coordinate or polygon
/// count and its time flag.
template <>
inline constexpr size_t kSerdeMinBytes<STObject> =
    sizeof(uint8_t) + sizeof(uint64_t) + sizeof(uint8_t);

}  // namespace stark

#endif  // STARK_CORE_ST_SERDE_H_

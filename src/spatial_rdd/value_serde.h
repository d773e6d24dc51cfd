/// \file value_serde.h
/// Serialization traits for the payload type V of an RDD[(STObject, V)],
/// used by the persistent index mode. Specialize Serde<V> for custom
/// payload types.
#ifndef STARK_SPATIAL_RDD_VALUE_SERDE_H_
#define STARK_SPATIAL_RDD_VALUE_SERDE_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/serde.h"

namespace stark {

// The primary template lives in common/serde.h (intentionally undefined so
// unsupported payload types fail at compile time); these are the built-in
// specializations for common payload types.

template <>
struct Serde<int32_t> {
  static void Write(BinaryWriter* w, const int32_t& v) {
    w->WriteI64(v);
  }
  static Result<int32_t> Read(BinaryReader* r) {
    STARK_ASSIGN_OR_RETURN(int64_t v, r->ReadI64());
    return static_cast<int32_t>(v);
  }
};

template <>
struct Serde<int64_t> {
  static void Write(BinaryWriter* w, const int64_t& v) { w->WriteI64(v); }
  static Result<int64_t> Read(BinaryReader* r) { return r->ReadI64(); }
};

template <>
struct Serde<uint64_t> {
  static void Write(BinaryWriter* w, const uint64_t& v) { w->WriteU64(v); }
  static Result<uint64_t> Read(BinaryReader* r) { return r->ReadU64(); }
};

template <>
struct Serde<double> {
  static void Write(BinaryWriter* w, const double& v) { w->WriteDouble(v); }
  static Result<double> Read(BinaryReader* r) { return r->ReadDouble(); }
};

template <>
struct Serde<std::string> {
  static void Write(BinaryWriter* w, const std::string& v) {
    w->WriteString(v);
  }
  static Result<std::string> Read(BinaryReader* r) { return r->ReadString(); }
};

template <typename A, typename B>
inline constexpr size_t kSerdeMinBytes<std::pair<A, B>> =
    kSerdeMinBytes<A> + kSerdeMinBytes<B>;

template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static void Write(BinaryWriter* w, const std::pair<A, B>& v) {
    Serde<A>::Write(w, v.first);
    Serde<B>::Write(w, v.second);
  }
  static Result<std::pair<A, B>> Read(BinaryReader* r) {
    STARK_ASSIGN_OR_RETURN(A a, Serde<A>::Read(r));
    STARK_ASSIGN_OR_RETURN(B b, Serde<B>::Read(r));
    return std::pair<A, B>{std::move(a), std::move(b)};
  }
};

}  // namespace stark

#endif  // STARK_SPATIAL_RDD_VALUE_SERDE_H_

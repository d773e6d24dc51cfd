/// \file serde.h
/// Minimal binary serialization streams used for persistent indexes
/// (STARK's "persist the index to disk/HDFS" mode; HDFS is substituted by
/// the local filesystem — see DESIGN.md).
#ifndef STARK_COMMON_SERDE_H_
#define STARK_COMMON_SERDE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace stark {

/// Append-only little-endian binary writer backed by an in-memory buffer.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }

  void WriteRaw(const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  const std::vector<char>& buffer() const { return buf_; }
  std::vector<char> TakeBuffer() { return std::move(buf_); }

 private:
  std::vector<char> buf_;
};

/// Sequential reader over a binary buffer; all reads are bounds-checked and
/// report IOError instead of reading out of range.
class BinaryReader {
 public:
  BinaryReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<char>& buf)
      : BinaryReader(buf.data(), buf.size()) {}

  Result<uint8_t> ReadU8() {
    uint8_t v = 0;
    STARK_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint32_t> ReadU32() {
    uint32_t v = 0;
    STARK_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint64_t> ReadU64() {
    uint64_t v = 0;
    STARK_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<int64_t> ReadI64() {
    int64_t v = 0;
    STARK_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<double> ReadDouble() {
    double v = 0;
    STARK_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<bool> ReadBool() {
    STARK_ASSIGN_OR_RETURN(uint8_t v, ReadU8());
    return v != 0;
  }

  Result<std::string> ReadString() {
    STARK_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
    if (n > Remaining()) {
      return Status::IOError("truncated string in binary stream");
    }
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

  Status ReadRaw(void* out, size_t n) {
    if (n > Remaining()) {
      return Status::IOError("unexpected end of binary stream");
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  size_t Remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Serialization trait: specialize Serde<V> to make a payload type usable
/// with persistent indexes and checkpoints. Scalar and pair specializations
/// live in spatial_rdd/value_serde.h; Serde<STObject> in core/st_serde.h.
template <typename V>
struct Serde;

/// A lower bound on the bytes Serde<V>::Write emits for one value: 0 unless
/// a specialization promises more (Serde<STObject> does, and a pair adds
/// its halves).
template <typename V>
inline constexpr size_t kSerdeMinBytes = 0;

/// The most elements of type V that \p remaining bytes can hold, taking
/// every element to be at least one byte. A reader rejects a stored count
/// above this before it reserves, so a corrupt count cannot ask for more
/// memory than a file of valid elements would fill.
template <typename V>
constexpr uint64_t MaxSerdeCount(size_t remaining) {
  return remaining / std::max<size_t>(kSerdeMinBytes<V>, 1);
}

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one) of \p n bytes at
/// \p data. Pass a previous return value as \p seed to checksum a stream
/// incrementally. Used by the checkpoint format to detect truncated or
/// bit-flipped part files.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// Writes \p buf to \p path, replacing any existing file.
Status WriteFileBytes(const std::string& path, const std::vector<char>& buf);

/// Reads the entire file at \p path.
Result<std::vector<char>> ReadFileBytes(const std::string& path);

}  // namespace stark

#endif  // STARK_COMMON_SERDE_H_

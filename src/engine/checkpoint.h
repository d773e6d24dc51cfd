/// \file checkpoint.h
/// Materializes an RDD to disk and reads it back — the engine-level
/// "store to HDFS" step of the paper's Figure-2 workflow (partitioned data
/// is persisted once and re-used by later programs), with the local
/// filesystem substituting for HDFS.
///
/// Format (version 2): `<directory>/_meta` is [magic "STCP"][u32 version]
/// [u64 num_parts]; each `<directory>/part-<i>.bin` is [magic "STPT"]
/// [u64 count][count elements, each written by its Serde<T>][u32 CRC-32 of
/// all preceding bytes]. This is the one part format for every element
/// type, spatial (STObject, V) pairs included. The trailing checksum
/// catches both truncation and bit flips, so a damaged part is reported as
/// a clean IOError instead of being deserialized into garbage, and
/// LoadCheckpointOrRecompute() can fall back to recomputing the data from
/// lineage (Spark's behaviour when a checkpoint block is lost). An element
/// count larger than the bytes that follow it can hold (MaxSerdeCount) is
/// rejected the same way.
///
/// Both the write and the read path carry fault-injection sites
/// (`engine.checkpoint.write` / `engine.checkpoint.read`) and retry
/// per-part I/O under the context's RetryPolicy, so a transient injected
/// fault is invisible to callers while persistent corruption still fails.
#ifndef STARK_ENGINE_CHECKPOINT_H_
#define STARK_ENGINE_CHECKPOINT_H_

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "engine/rdd.h"
#include "fault/failpoint.h"
#include "fault/retry.h"
#include "obs/metrics.h"
// Callers must also include the Serde specializations for their element
// type: spatial_rdd/value_serde.h (scalars, strings, pairs) and/or
// core/st_serde.h (STObject).

namespace stark {

inline constexpr uint32_t kCheckpointMetaMagic = 0x53544350;  // "STCP"
inline constexpr uint32_t kCheckpointPartMagic = 0x53545054;  // "STPT"
inline constexpr uint32_t kCheckpointVersion = 2;

namespace checkpoint_internal {

inline std::string PartPath(const std::string& directory, uint64_t p) {
  return directory + "/part-" + std::to_string(p) + ".bin";
}

/// Runs the Status-returning \p fn up to \p attempts times, stopping on
/// the first success — per-part I/O retry for transient faults.
template <typename Fn>
Status RetryIo(size_t attempts, const Fn& fn) {
  Status status;
  for (size_t attempt = 1; attempt <= attempts; ++attempt) {
    status = fn();
    if (status.ok()) return status;
  }
  return status;
}

/// Decodes one part file: verifies the trailing CRC before trusting any
/// byte, then the magic and element count.
template <typename T>
Result<std::vector<T>> DecodeCheckpointPart(const std::vector<char>& buf,
                                            const std::string& path) {
  static obs::Counter* const crc_errors =
      obs::DefaultMetrics().GetCounter("engine.checkpoint.crc_errors");
  constexpr size_t kMinSize =
      sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint32_t);
  if (buf.size() < kMinSize) {
    crc_errors->Increment();
    return Status::IOError("truncated checkpoint part: " + path);
  }
  const size_t payload_size = buf.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buf.data() + payload_size, sizeof(stored_crc));
  if (Crc32(buf.data(), payload_size) != stored_crc) {
    crc_errors->Increment();
    return Status::IOError("checkpoint part checksum mismatch (truncated or "
                           "corrupt): " +
                           path);
  }
  BinaryReader r(buf.data(), payload_size);
  STARK_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kCheckpointPartMagic) {
    return Status::IOError("bad checkpoint part magic in " + path);
  }
  STARK_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
  // A count beyond what the bytes left can hold is corrupt — and must not
  // reach reserve().
  if (count > MaxSerdeCount<T>(r.Remaining())) {
    return Status::IOError("checkpoint part element count exceeds part size: " +
                           path);
  }
  std::vector<T> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    STARK_ASSIGN_OR_RETURN(T x, Serde<T>::Read(&r));
    out.push_back(std::move(x));
  }
  if (!r.AtEnd()) {
    return Status::IOError("trailing bytes in checkpoint part: " + path);
  }
  return out;
}

}  // namespace checkpoint_internal

/// Writes every partition of \p rdd to `<directory>/part-<i>.bin` plus a
/// `_meta` file; T must have a Serde specialization. Task failures while
/// evaluating the RDD and transient write faults are retried under the
/// context's RetryPolicy; a permanent failure is returned as a Status.
template <typename T>
Status Checkpoint(const RDD<T>& rdd, const std::string& directory) {
  static fault::FailPoint* const write_fp =
      fault::DefaultFailPoints().Get("engine.checkpoint.write");
  STARK_ASSIGN_OR_RETURN(const std::vector<std::vector<T>> parts,
                         rdd.TryCollectPartitions());
  const size_t attempts = rdd.ctx()->retry_policy().EffectiveAttempts();
  BinaryWriter meta;
  meta.WriteU32(kCheckpointMetaMagic);
  meta.WriteU32(kCheckpointVersion);
  meta.WriteU64(parts.size());
  STARK_RETURN_NOT_OK(checkpoint_internal::RetryIo(attempts, [&] {
    STARK_RETURN_NOT_OK(fault::MaybeStatus(write_fp));
    return WriteFileBytes(directory + "/_meta", meta.buffer());
  }));
  for (size_t p = 0; p < parts.size(); ++p) {
    BinaryWriter w;
    w.WriteU32(kCheckpointPartMagic);
    w.WriteU64(parts[p].size());
    for (const T& x : parts[p]) Serde<T>::Write(&w, x);
    const uint32_t crc = Crc32(w.buffer().data(), w.buffer().size());
    w.WriteU32(crc);
    STARK_RETURN_NOT_OK(checkpoint_internal::RetryIo(attempts, [&] {
      STARK_RETURN_NOT_OK(fault::MaybeStatus(write_fp));
      return WriteFileBytes(checkpoint_internal::PartPath(directory, p),
                            w.buffer());
    }));
  }
  return Status::OK();
}

/// Reads a checkpoint written by Checkpoint(), preserving the partition
/// structure. A truncated or bit-flipped part is detected by its checksum
/// and reported as a clean IOError (after the RetryPolicy's attempts, so
/// transient read faults recover but persistent damage does not loop).
template <typename T>
Result<RDD<T>> LoadCheckpoint(Context* ctx, const std::string& directory) {
  static fault::FailPoint* const read_fp =
      fault::DefaultFailPoints().Get("engine.checkpoint.read");
  const size_t attempts = ctx->retry_policy().EffectiveAttempts();
  STARK_ASSIGN_OR_RETURN(std::vector<char> meta_buf,
                         ReadFileBytes(directory + "/_meta"));
  BinaryReader meta(meta_buf);
  STARK_ASSIGN_OR_RETURN(uint32_t magic, meta.ReadU32());
  if (magic != kCheckpointMetaMagic) {
    return Status::IOError("bad checkpoint magic in " + directory);
  }
  STARK_ASSIGN_OR_RETURN(uint32_t version, meta.ReadU32());
  if (version != kCheckpointVersion) {
    return Status::IOError("unsupported checkpoint version " +
                           std::to_string(version) + " in " + directory);
  }
  STARK_ASSIGN_OR_RETURN(uint64_t num_parts, meta.ReadU64());
  std::vector<std::vector<T>> parts(num_parts);
  for (uint64_t p = 0; p < num_parts; ++p) {
    const std::string path = checkpoint_internal::PartPath(directory, p);
    Result<std::vector<T>> part = Status::UnknownError("unreachable");
    for (size_t attempt = 1; attempt <= attempts; ++attempt) {
      part = [&]() -> Result<std::vector<T>> {
        STARK_RETURN_NOT_OK(fault::MaybeStatus(read_fp));
        STARK_ASSIGN_OR_RETURN(std::vector<char> buf, ReadFileBytes(path));
        return checkpoint_internal::DecodeCheckpointPart<T>(buf, path);
      }();
      if (part.ok()) break;
    }
    STARK_ASSIGN_OR_RETURN(parts[p], std::move(part));
  }
  return MakeRDDFromPartitions(ctx, std::move(parts));
}

/// Loads the checkpoint at \p directory, falling back to recomputing
/// \p lineage when the checkpoint is missing, truncated or corrupt —
/// Spark's persist-and-reuse contract: damaged persisted data degrades to
/// a lineage recomputation, never to wrong results. On recovery the
/// checkpoint is rewritten (best effort) so the next reader finds a
/// healthy copy. Records engine.checkpoint.recovered.
template <typename T>
Result<RDD<T>> LoadCheckpointOrRecompute(Context* ctx,
                                         const std::string& directory,
                                         const RDD<T>& lineage) {
  static obs::Counter* const recovered =
      obs::DefaultMetrics().GetCounter("engine.checkpoint.recovered");
  static obs::Counter* const heal_failures =
      obs::DefaultMetrics().GetCounter("engine.checkpoint.heal_failures");
  Result<RDD<T>> loaded = LoadCheckpoint<T>(ctx, directory);
  if (loaded.ok()) return loaded;
  recovered->Increment();
  STARK_ASSIGN_OR_RETURN(std::vector<std::vector<T>> parts,
                         lineage.TryCollectPartitions());
  RDD<T> rdd = MakeRDDFromPartitions(ctx, std::move(parts));
  if (!Checkpoint(rdd, directory).ok()) heal_failures->Increment();
  return rdd;
}

}  // namespace stark

#endif  // STARK_ENGINE_CHECKPOINT_H_

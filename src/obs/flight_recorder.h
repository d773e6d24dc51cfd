/// \file flight_recorder.h
/// Always-on flight recorder: a fixed-size, lock-free ring buffer of recent
/// task-lifecycle events (claim / finish / retry / speculate / cancel /
/// worker death / injected fault). Unlike the TaskTracer, which must be
/// armed before the run, the recorder is recording *all the time* at a cost
/// of a few relaxed atomic stores per event, so when a job dies — deadline,
/// cancellation, exhausted retries — the last few thousand scheduling
/// decisions that led up to the failure can be dumped for a post-mortem
/// without re-running anything.
///
/// Concurrency model: writers take an index with one fetch_add, claim its
/// slot exclusively by CAS on a per-slot sequence counter and publish it
/// through that counter (a seqlock); the payload itself is stored as
/// relaxed atomic words, so late readers either observe a fully published
/// event or skip the slot — no torn reads, TSan-clean. A writer lapped by a
/// later one drops its already-overwritten event.
///
/// Dumps: `Dump(path, reason)` writes a JSON post-mortem of the surviving
/// ring contents. Arm auto-dumping with STARK_FLIGHT_RECORDER=<path> (or
/// set_auto_dump_path): the engine then dumps automatically whenever a job
/// resolves to DeadlineExceeded / Cancelled / a permanent failure.
#ifndef STARK_OBS_FLIGHT_RECORDER_H_
#define STARK_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace stark {
namespace obs {

/// What happened to a task copy (or to the job/worker hosting it).
enum class FlightEventKind : uint8_t {
  kClaim = 0,       ///< a copy won the per-task claim and will run user code
  kFinish = 1,      ///< successful commit; value = run duration (ns)
  kRetry = 2,       ///< attempt failed, another attempt follows
  kSpeculate = 3,   ///< driver launched a speculative backup copy
  kCancel = 4,      ///< task skipped/stopped by cancel, deadline or fail-fast
  kWorkerDeath = 5, ///< the worker executing the copy was killed mid-task
  kTaskFail = 6,    ///< permanent task failure (retries exhausted)
  kJobFail = 7,     ///< job resolved non-OK; detail = stage, value = tasks
  kFault = 8,       ///< an armed fail point fired; detail = site name
};

/// Number of FlightEventKind values, for tables indexed by kind.
inline constexpr size_t kNumFlightEventKinds =
    static_cast<size_t>(FlightEventKind::kFault) + 1;

/// Human-readable name of \p kind ("claim", "finish", ...).
const char* FlightEventKindName(FlightEventKind kind);

/// One decoded ring entry. `detail` is a short fixed-size annotation —
/// stage name for job events, fail-point site for kFault — truncated to
/// kDetailSize-1 characters.
struct FlightEvent {
  static constexpr size_t kDetailSize = 24;

  uint64_t ts_ns = 0;     ///< steady-clock ns since the recorder's epoch
  uint64_t job = 0;       ///< JobControl generation (0 = no job context)
  uint32_t partition = 0;
  uint32_t copy = 0;      ///< 1 = original, 2 = speculative; 0 = n/a
  uint32_t attempt = 0;   ///< 1-based attempt number; 0 = n/a
  int32_t worker = -1;    ///< pool worker index; -1 = driver thread
  FlightEventKind kind = FlightEventKind::kClaim;
  uint64_t value = 0;     ///< kind-specific (duration ns, task count, ...)
  char detail[kDetailSize] = {};
};

/// \brief The lock-free ring. One process-wide instance
/// (DefaultFlightRecorder()) is shared by the engine; tests may construct
/// private recorders.
class FlightRecorder {
 public:
  /// \p capacity is rounded up to a power of two; minimum 2.
  explicit FlightRecorder(size_t capacity = 8192);
  STARK_DISALLOW_COPY_AND_ASSIGN(FlightRecorder);

  /// Hot-path gate: a single relaxed load. Recording is ON by default —
  /// Disable() exists for overhead baselines, not normal operation.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  size_t capacity() const { return capacity_; }

  /// Nanoseconds since the recorder's epoch (steady clock).
  uint64_t NowNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Records one event (timestamps it if \p e.ts_ns is 0). Takes no lock;
  /// it waits only while an older event is still being stored into the
  /// same slot. Callable from any thread including pool workers mid-task.
  void Record(FlightEvent e);

  /// Convenience: build + record a task-lifecycle event.
  void RecordTask(FlightEventKind kind, uint64_t job, size_t partition,
                  uint32_t copy, uint32_t attempt, int worker,
                  uint64_t value = 0, const char* detail = nullptr);

  /// Total events ever recorded (monotonic; may exceed capacity).
  uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// Consistent copies of the surviving ring contents, oldest first.
  /// Slots being concurrently overwritten are skipped, not torn.
  std::vector<FlightEvent> Snapshot() const;

  /// JSON post-mortem: {"reason": ..., "recorded": N, "events": [...]}.
  std::string DumpJson(const std::string& reason) const;

  /// Writes DumpJson to \p path.
  Status Dump(const std::string& path, const std::string& reason) const;

  /// Arms automatic dump-on-failure to \p path (empty disarms). The
  /// default recorder arms itself from STARK_FLIGHT_RECORDER at creation.
  void set_auto_dump_path(const std::string& path);
  std::string auto_dump_path() const;

  /// Called by the engine when a job resolves non-OK (and by the fault
  /// layer when a fail point fires, if STARK_FLIGHT_DUMP_ON_FAULT=1):
  /// dumps to the armed path, if any. Returns true when a dump was
  /// written. Counted by `engine.flight.dumps`.
  bool AutoDump(const std::string& reason);

 private:
  // Payload words per slot: 5 fixed (ts, job, packed ids, worker, value)
  // + detail (kDetailSize bytes).
  static constexpr size_t kDetailWords = FlightEvent::kDetailSize / 8;
  static constexpr size_t kWordsPerSlot = 5 + kDetailWords;

  struct Slot {
    std::atomic<uint64_t> seq{0};  ///< 0 = empty; odd = writing; even = 2*(i+1)
    std::array<std::atomic<uint64_t>, kWordsPerSlot> words{};
  };

  const size_t capacity_;  // power of two
  const size_t mask_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_{0};
  std::unique_ptr<Slot[]> slots_;

  mutable std::mutex dump_mu_;  // guards auto_dump_path_ only
  std::string auto_dump_path_;
};

/// The process-wide recorder the engine records into; arms auto-dump from
/// STARK_FLIGHT_RECORDER on first use.
FlightRecorder& DefaultFlightRecorder();

}  // namespace obs
}  // namespace stark

#endif  // STARK_OBS_FLIGHT_RECORDER_H_

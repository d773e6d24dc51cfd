#include "obs/flight_recorder.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/serde.h"
#include "obs/json_util.h"
#include "obs/metrics.h"

namespace stark {
namespace obs {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

/// Packs partition/copy/attempt/kind into one word (see Unpack).
uint64_t PackIds(const FlightEvent& e) {
  return (static_cast<uint64_t>(e.partition) << 32) |
         (static_cast<uint64_t>(e.copy & 0xffff) << 16) |
         (static_cast<uint64_t>(e.attempt & 0xff) << 8) |
         static_cast<uint64_t>(e.kind);
}

void UnpackIds(uint64_t a, FlightEvent* e) {
  e->partition = static_cast<uint32_t>(a >> 32);
  e->copy = static_cast<uint32_t>((a >> 16) & 0xffff);
  e->attempt = static_cast<uint32_t>((a >> 8) & 0xff);
  e->kind = static_cast<FlightEventKind>(a & 0xff);
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kClaim: return "claim";
    case FlightEventKind::kFinish: return "finish";
    case FlightEventKind::kRetry: return "retry";
    case FlightEventKind::kSpeculate: return "speculate";
    case FlightEventKind::kCancel: return "cancel";
    case FlightEventKind::kWorkerDeath: return "worker_death";
    case FlightEventKind::kTaskFail: return "task_fail";
    case FlightEventKind::kJobFail: return "job_fail";
    case FlightEventKind::kFault: return "fault";
  }
  return "?";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RoundUpPow2(capacity)),
      mask_(capacity_ - 1),
      epoch_(std::chrono::steady_clock::now()),
      slots_(new Slot[capacity_]) {}

void FlightRecorder::Record(FlightEvent e) {
  if (!enabled()) return;
  if (e.ts_ns == 0) e.ts_ns = NowNanos();
  const uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[i & mask_];
  // Seqlock write. Writers a lap or more apart share a slot, so the writer
  // of lap i first claims it exclusively: a CAS from an even (published or
  // empty) sequence to its own odd 2i+1. While an earlier lap is still
  // storing words (odd, older) it waits; once a later lap has claimed or
  // published the slot, event i is already overwritten and is dropped.
  // Only the claim holder stores words and publishes, with its own even
  // 2(i+1), so a reader that sees the same even sequence before and after
  // reading the words has read one writer's whole record.
  const uint64_t claim = 2 * i + 1;
  uint64_t seq = s.seq.load(std::memory_order_relaxed);
  for (;;) {
    if (seq > claim) return;
    if ((seq & 1) != 0) {
      std::this_thread::yield();
      seq = s.seq.load(std::memory_order_relaxed);
      continue;
    }
    if (s.seq.compare_exchange_weak(seq, claim, std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
      break;
    }
  }
  // Orders the claim before the payload stores, so a reader that sees any
  // word of this record also sees the odd sequence on its second load.
  std::atomic_thread_fence(std::memory_order_release);
  s.words[0].store(e.ts_ns, std::memory_order_relaxed);
  s.words[1].store(e.job, std::memory_order_relaxed);
  s.words[2].store(PackIds(e), std::memory_order_relaxed);
  s.words[3].store(static_cast<uint64_t>(static_cast<uint32_t>(e.worker)),
                   std::memory_order_relaxed);
  s.words[4].store(e.value, std::memory_order_relaxed);
  uint64_t detail_words[kDetailWords] = {};
  std::memcpy(detail_words, e.detail, sizeof(detail_words));
  for (size_t w = 0; w < kDetailWords; ++w) {
    s.words[5 + w].store(detail_words[w], std::memory_order_relaxed);
  }
  s.seq.store(2 * (i + 1), std::memory_order_release);
}

void FlightRecorder::RecordTask(FlightEventKind kind, uint64_t job,
                                size_t partition, uint32_t copy,
                                uint32_t attempt, int worker, uint64_t value,
                                const char* detail) {
  if (!enabled()) return;
  FlightEvent e;
  e.job = job;
  e.partition = static_cast<uint32_t>(partition);
  e.copy = copy;
  e.attempt = attempt;
  e.worker = worker;
  e.kind = kind;
  e.value = value;
  if (detail != nullptr) {
    std::strncpy(e.detail, detail, FlightEvent::kDetailSize - 1);
  }
  Record(e);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  const uint64_t end = next_.load(std::memory_order_acquire);
  const uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t i = begin; i < end; ++i) {
    const Slot& s = slots_[i & mask_];
    const uint64_t seq_before = s.seq.load(std::memory_order_acquire);
    if (seq_before == 0 || (seq_before & 1) != 0) continue;  // empty/writing
    FlightEvent e;
    uint64_t detail_words[kDetailWords];
    e.ts_ns = s.words[0].load(std::memory_order_relaxed);
    e.job = s.words[1].load(std::memory_order_relaxed);
    const uint64_t a = s.words[2].load(std::memory_order_relaxed);
    const uint64_t worker_word = s.words[3].load(std::memory_order_relaxed);
    e.value = s.words[4].load(std::memory_order_relaxed);
    for (size_t w = 0; w < kDetailWords; ++w) {
      detail_words[w] = s.words[5 + w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != seq_before) continue;
    UnpackIds(a, &e);
    e.worker = static_cast<int32_t>(static_cast<uint32_t>(worker_word));
    std::memcpy(e.detail, detail_words, sizeof(detail_words));
    e.detail[FlightEvent::kDetailSize - 1] = '\0';
    out.push_back(e);
  }
  return out;
}

std::string FlightRecorder::DumpJson(const std::string& reason) const {
  const std::vector<FlightEvent> events = Snapshot();
  std::string out = "{\"reason\":" + JsonQuoted(reason) +
                    ",\"capacity\":" + std::to_string(capacity_) +
                    ",\"recorded\":" + std::to_string(total_recorded()) +
                    ",\"events\":[";
  bool first = true;
  for (const FlightEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"ts_ns\":" + std::to_string(e.ts_ns) +
           ",\"kind\":" + JsonQuoted(FlightEventKindName(e.kind)) +
           ",\"job\":" + std::to_string(e.job) +
           ",\"partition\":" + std::to_string(e.partition) +
           ",\"copy\":" + std::to_string(e.copy) +
           ",\"attempt\":" + std::to_string(e.attempt) +
           ",\"worker\":" + std::to_string(e.worker) +
           ",\"value\":" + std::to_string(e.value);
    if (e.detail[0] != '\0') {
      out += ",\"detail\":" + JsonQuoted(e.detail);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

Status FlightRecorder::Dump(const std::string& path,
                            const std::string& reason) const {
  const std::string json = DumpJson(reason);
  return WriteFileBytes(path, std::vector<char>(json.begin(), json.end()));
}

void FlightRecorder::set_auto_dump_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(dump_mu_);
  auto_dump_path_ = path;
}

std::string FlightRecorder::auto_dump_path() const {
  std::lock_guard<std::mutex> lock(dump_mu_);
  return auto_dump_path_;
}

bool FlightRecorder::AutoDump(const std::string& reason) {
  const std::string path = auto_dump_path();
  if (path.empty()) return false;
  static Counter* const dumps =
      DefaultMetrics().GetCounter("engine.flight.dumps");
  const Status status = Dump(path, reason);
  if (!status.ok()) {
    std::fprintf(stderr, "flight-recorder dump to %s failed: %s\n",
                 path.c_str(), status.ToString().c_str());
    return false;
  }
  dumps->Increment();
  return true;
}

FlightRecorder& DefaultFlightRecorder() {
  static FlightRecorder* recorder = [] {
    size_t capacity = 8192;
    if (const char* raw = std::getenv("STARK_FLIGHT_CAPACITY")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(raw, &end, 10);
      if (end != raw && *end == '\0' && v > 0) {
        capacity = static_cast<size_t>(v);
      }
    }
    auto* r = new FlightRecorder(capacity);
    if (const char* path = std::getenv("STARK_FLIGHT_RECORDER")) {
      if (*path != '\0') r->set_auto_dump_path(path);
    }
    return r;
  }();
  return *recorder;
}

}  // namespace obs
}  // namespace stark

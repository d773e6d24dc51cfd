#include "stream/window.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace stark {
namespace stream {

size_t IdSet::Home(int64_t id) const {
  // Fibonacci hashing: the top bits of a multiplicative hash, so dense and
  // strided ids spread over the table.
  return static_cast<size_t>(
      (static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ULL) >> shift_);
}

void IdSet::Grow() {
  std::vector<int64_t> old = std::move(slots_);
  const size_t capacity = old.empty() ? 16 : old.size() * 2;
  slots_.assign(capacity, kEmpty);
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const int64_t id : old) {
    if (id == kEmpty) continue;
    size_t i = Home(id);
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

bool IdSet::Insert(int64_t id) {
  if (id == kEmpty) {
    if (has_empty_key_) return false;
    has_empty_key_ = true;
    ++size_;
    return true;
  }
  if ((size_ + 1) * 2 > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = Home(id);
  while (slots_[i] != kEmpty) {
    if (slots_[i] == id) return false;
    i = (i + 1) & mask;
  }
  slots_[i] = id;
  ++size_;
  return true;
}

bool IdSet::Contains(int64_t id) const {
  if (id == kEmpty) return has_empty_key_;
  if (slots_.empty()) return false;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(id); slots_[i] != kEmpty; i = (i + 1) & mask) {
    if (slots_[i] == id) return true;
  }
  return false;
}

void IdSet::Erase(int64_t id) {
  if (id == kEmpty) {
    if (has_empty_key_) --size_;
    has_empty_key_ = false;
    return;
  }
  if (slots_.empty()) return;
  const size_t mask = slots_.size() - 1;
  size_t hole = Home(id);
  while (slots_[hole] != id) {
    if (slots_[hole] == kEmpty) return;
    hole = (hole + 1) & mask;
  }
  // Backward shift: pull each later id of the probe run into the hole
  // unless its home lies cyclically in (hole, j], where it already is
  // reachable without crossing the hole.
  for (size_t j = (hole + 1) & mask; slots_[j] != kEmpty; j = (j + 1) & mask) {
    const size_t home = Home(slots_[j]);
    const bool reachable =
        hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
    if (reachable) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole] = kEmpty;
  --size_;
}

WindowManager::IngestCounts WindowManager::Ingest(StreamEvent event,
                                                  Instant watermark) {
  IngestCounts counts;
  std::lock_guard<std::mutex> lock(mu_);
  IngestLocked(event, watermark, &counts);
  return counts;
}

WindowManager::IngestCounts WindowManager::IngestBatch(
    std::vector<StreamEvent> events, const std::vector<Instant>& watermarks) {
  IngestCounts counts;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < events.size(); ++i) {
    IngestLocked(events[i], watermarks[i], &counts);
  }
  return counts;
}

void WindowManager::IngestLocked(StreamEvent& event, Instant watermark,
                                 IngestCounts* counts) {
  const Instant t = event.event_time();
  const int64_t slide = spec_.EffectiveSlide();
  const int64_t last = LastWindowStart(t, spec_);
  int64_t first = FirstWindowStart(t, spec_);
  high_watermark_ = std::max(high_watermark_, watermark);
  if (t < high_watermark_) {
    IngestColdLocked(event, last, /*late=*/true, counts);
    return;
  }
  if (first > last) {
    // slide > size leaves gaps between windows; an event falling in a gap
    // is on time but belongs to no window.
    IngestColdLocked(event, last, /*late=*/false, counts);
    return;
  }
  if (fired_any_) {
    // Once firing has begun the frontier never rewinds: windows below it
    // already fired. With one source a non-late event can't land below the
    // frontier at all; under multi-source races (the ingest watermark
    // trails the firing watermark once some source is exhausted) an event
    // whose every window has fired is reclassified as late, keeping sink
    // delivery exactly-once. Before the first firing no window has fired,
    // so an out-of-order event may still open earlier windows freely.
    // Window starts and the frontier share the slide alignment.
    first = std::max(first, *next_start_);
    if (first > last) {
      IngestColdLocked(event, last, /*late=*/true, counts);
      return;
    }
  }
  // On time with its last window still open: only the open tier can hold
  // an earlier delivery of this id.
  if (!open_ids_.Insert(event.id)) {
    ++counts->duplicates;
    return;
  }
  for (int64_t s = first; s < last; s += slide) {
    BufferLocked(s).push_back(event);
  }
  BufferLocked(last).push_back(std::move(event));
  // The frontier starts at the earliest window of the earliest accepted
  // event; before the first firing it can only extend downward.
  if (!next_start_.has_value() || first < *next_start_) next_start_ = first;
  ++counts->accepted;
}

void WindowManager::IngestColdLocked(StreamEvent& event, int64_t last,
                                     bool late, IngestCounts* counts) {
  if (SeenLocked(event.id, event.event_time(), last)) {
    ++counts->duplicates;
    return;
  }
  misc_ids_.Insert(event.id);
  if (!late) {
    ++counts->accepted;
    return;
  }
  ++counts->late;
  if (policy_ == LatePolicy::kSideOutput) {
    side_output_.push_back(std::move(event));
  }
}

bool WindowManager::SeenLocked(int64_t id, Instant t, int64_t last) const {
  if (misc_ids_.Contains(id)) return true;
  if (!fired_any_ || last >= *next_start_) return open_ids_.Contains(id);
  // The last window fired: the archive holds the delivery.
  return std::binary_search(archive_.begin(), archive_.end(),
                            CanonicalKey{t, id});
}

std::vector<StreamEvent>& WindowManager::BufferLocked(int64_t start) {
  const auto [it, opened] = buffered_.try_emplace(start);
  if (opened && !spare_buffers_.empty()) {
    it->second = std::move(spare_buffers_.back());
    spare_buffers_.pop_back();
  }
  return it->second;
}

void WindowManager::FireFrontierLocked(std::vector<FiredWindow>* out) {
  FiredWindow fired;
  fired.start = *next_start_;
  fired.end = *next_start_ + spec_.size;
  const auto it = buffered_.find(*next_start_);
  if (it != buffered_.end()) {
    std::vector<StreamEvent>& arrived = it->second;
    // Sort compact keys instead of the events, then move each event once
    // into place. Ids are unique after dedupe, so the slot never breaks a
    // tie.
    sort_keys_.clear();
    for (size_t i = 0; i < arrived.size(); ++i) {
      sort_keys_.push_back({KeyOf(arrived[i]), i});
    }
    std::sort(sort_keys_.begin(), sort_keys_.end(),
              [](const SortKey& a, const SortKey& b) { return a.key < b.key; });
    fired.events.reserve(arrived.size());
    for (const SortKey& key : sort_keys_) {
      fired.events.push_back(std::move(arrived[key.slot]));
    }
    arrived.clear();
    spare_buffers_.push_back(std::move(arrived));
    buffered_.erase(it);
  }
  // The events whose last window this is have t < start + slide: a prefix
  // of the canonical order. Their ids leave the open tier for the archive.
  const Instant retire_before = fired.start + spec_.EffectiveSlide();
  for (const StreamEvent& e : fired.events) {
    if (e.event_time() >= retire_before) break;
    archive_.push_back(KeyOf(e));
    open_ids_.Erase(e.id);
  }
  out->push_back(std::move(fired));
  *next_start_ += spec_.EffectiveSlide();
  fired_any_ = true;
}

std::vector<FiredWindow> WindowManager::CollectRipe(Instant watermark) {
  std::vector<FiredWindow> out;
  if (watermark == kMinWatermark) return out;
  std::lock_guard<std::mutex> lock(mu_);
  // Dense firing is bounded by the last occupied window: without the
  // buffered_ guard a +inf watermark (all sources exhausted) would emit
  // empty windows forever. Trailing empty windows past the last event do
  // not exist in the batch oracle either.
  while (next_start_.has_value() && !buffered_.empty() &&
         *next_start_ + spec_.size <= watermark &&
         *next_start_ <= buffered_.rbegin()->first) {
    FireFrontierLocked(&out);
  }
  return out;
}

std::vector<FiredWindow> WindowManager::Flush() {
  std::vector<FiredWindow> out;
  std::lock_guard<std::mutex> lock(mu_);
  while (next_start_.has_value() && !buffered_.empty() &&
         *next_start_ <= buffered_.rbegin()->first) {
    FireFrontierLocked(&out);
  }
  return out;
}

std::vector<StreamEvent> WindowManager::TakeSideOutput() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(side_output_);
}

WindowManager::StateSize WindowManager::state_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  StateSize size;
  size.open_ids = open_ids_.size();
  size.archived_ids = archive_.size();
  for (const auto& [start, events] : buffered_) {
    size.buffered_events += events.size();
  }
  return size;
}

}  // namespace stream
}  // namespace stark

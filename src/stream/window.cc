#include "stream/window.h"

#include <algorithm>
#include <utility>

namespace stark {
namespace stream {

WindowManager::IngestResult WindowManager::Ingest(StreamEvent event,
                                                  Instant watermark) {
  IngestResult result;
  const Instant t = event.event_time();
  const int64_t slide = spec_.EffectiveSlide();
  const int64_t last = LastWindowStart(t, spec_);
  int64_t first = FirstWindowStart(t, spec_);
  std::lock_guard<std::mutex> lock(mu_);
  if (!seen_ids_.insert(event.id).second) {
    result.duplicate = true;
    return result;
  }
  if (watermark != kMinWatermark && t < watermark) {
    result.late = true;
    if (policy_ == LatePolicy::kSideOutput) {
      side_output_.push_back(std::move(event));
    }
    return result;
  }
  if (first > last) {
    // slide > size leaves gaps between windows; an event falling in a gap
    // is on time but belongs to no window.
    result.accepted = true;
    return result;
  }
  if (fired_any_ && next_start_.has_value()) {
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
      result.late = true;
      if (policy_ == LatePolicy::kSideOutput) {
        side_output_.push_back(std::move(event));
      }
      return result;
    }
  }
  for (int64_t s = first; s < last; s += slide) buffered_[s].push_back(event);
  buffered_[last].push_back(std::move(event));
  // The frontier starts at the earliest window of the earliest accepted
  // event; before the first firing it can only extend downward.
  if (!next_start_.has_value() || first < *next_start_) next_start_ = first;
  result.accepted = true;
  return result;
}

void WindowManager::FireFrontierLocked(std::vector<FiredWindow>* out) {
  FiredWindow fired;
  fired.start = *next_start_;
  fired.end = *next_start_ + spec_.size;
  const auto it = buffered_.find(*next_start_);
  if (it != buffered_.end()) {
    std::vector<StreamEvent>& arrived = it->second;
    // Sort compact keys instead of the events, then move each event once
    // into place. Same order as CanonicalLess; ids are unique after dedupe,
    // so the slot never breaks a tie.
    struct Key {
      Instant time;
      int64_t id;
      size_t slot;
    };
    std::vector<Key> keys;
    keys.reserve(arrived.size());
    for (size_t i = 0; i < arrived.size(); ++i) {
      keys.push_back({arrived[i].event_time(), arrived[i].id, i});
    }
    std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
      return a.time != b.time ? a.time < b.time : a.id < b.id;
    });
    fired.events.reserve(arrived.size());
    for (const Key& key : keys) {
      fired.events.push_back(std::move(arrived[key.slot]));
    }
    buffered_.erase(it);
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

}  // namespace stream
}  // namespace stark

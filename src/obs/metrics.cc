#include "obs/metrics.h"

#include <bit>
#include <cstdio>

#include "obs/json_util.h"

namespace stark {
namespace obs {

namespace {

/// Bit width of \p v: 0 for 0, otherwise 1 + floor(log2(v)).
size_t BucketIndex(uint64_t v) {
  return static_cast<size_t>(std::bit_width(v));
}

}  // namespace

void Histogram::Record(uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  const uint64_t min = min_.load(std::memory_order_relaxed);
  s.min = min == UINT64_MAX ? 0 : min;
  s.max = max_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

uint64_t Histogram::Snapshot::ApproxPercentile(double p) const {
  if (count == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  const uint64_t rank =
      static_cast<uint64_t>(p * static_cast<double>(count - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Upper bound of bucket i = 2^i - 1 (bucket 0 holds only zeros).
      if (i == 0) return 0;
      if (i >= 64) return UINT64_MAX;
      return (uint64_t{1} << i) - 1;
    }
  }
  return max;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  Snapshot s;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) s.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->Snap();
  return s;
}

std::string MetricsRegistry::TextReport() const {
  const Snapshot s = Snap();
  std::string out;
  char buf[256];
  for (const auto& [name, v] : s.counters) {
    std::snprintf(buf, sizeof(buf), "%-48s %20llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  for (const auto& [name, v] : s.gauges) {
    std::snprintf(buf, sizeof(buf), "%-48s %20lld\n", name.c_str(),
                  static_cast<long long>(v));
    out += buf;
  }
  for (const auto& [name, h] : s.histograms) {
    std::snprintf(buf, sizeof(buf),
                  "%-48s count=%llu mean=%.1f min=%llu p50=%llu p99=%llu "
                  "max=%llu\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.Mean(), static_cast<unsigned long long>(h.min),
                  static_cast<unsigned long long>(h.ApproxPercentile(0.5)),
                  static_cast<unsigned long long>(h.ApproxPercentile(0.99)),
                  static_cast<unsigned long long>(h.max));
    out += buf;
  }
  return out;
}

std::string MetricsRegistry::Json() const {
  const Snapshot s = Snap();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : s.counters) {
    if (!first) out += ',';
    first = false;
    out += JsonQuoted(name);
    out += ':';
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : s.gauges) {
    if (!first) out += ',';
    first = false;
    out += JsonQuoted(name);
    out += ':';
    out += std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : s.histograms) {
    if (!first) out += ',';
    first = false;
    out += JsonQuoted(name);
    out += ":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) +
           ",\"min\":" + std::to_string(h.min) +
           ",\"max\":" + std::to_string(h.max) +
           ",\"p50\":" + std::to_string(h.ApproxPercentile(0.5)) +
           ",\"p99\":" + std::to_string(h.ApproxPercentile(0.99)) + "}";
  }
  out += "}}";
  return out;
}

MetricsRegistry& DefaultMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace stark

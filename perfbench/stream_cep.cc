/// \file stream_cep.cc
/// Workload stream_cep: a continuous query replayed through StreamContext —
/// 500k seeded generator events arriving up to 16 ticks out of order,
/// tumbling event-time windows of 100 ticks, and a COUNT pattern ("any
/// `disaster` event inside a region") over every window, on Context(3).
/// One op is one full replay. Each window is a tiny engine job, so per-job
/// dispatch and CEP dominate while geometry and index work stay near zero:
/// engine-overhead changes show here and nowhere else.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "stream/source.h"
#include "stream/stream_context.h"

namespace perfbench {
namespace {

using stark::stream::StreamEvent;
namespace stream = stark::stream;

constexpr int64_t kDisorder = 16;
constexpr int64_t kWindow = 100;
constexpr size_t kThreads = 3;
constexpr size_t kFullEvents = 500'000;
constexpr size_t kSmokeEvents = 20'000;

/// Replays a precomputed arrival schedule (the generator's output), so the
/// timed replays pay for ingestion, not for generating their input.
class ReplaySource final : public stream::StreamSource {
 public:
  explicit ReplaySource(std::shared_ptr<const std::vector<StreamEvent>> events)
      : events_(std::move(events)) {}

  const std::string& name() const override { return name_; }
  std::vector<StreamEvent> Poll(size_t max_events) override {
    const size_t end = std::min(events_->size(), cursor_ + max_events);
    std::vector<StreamEvent> out(events_->begin() + cursor_,
                                 events_->begin() + end);
    cursor_ = end;
    return out;
  }
  bool Exhausted() const override { return cursor_ >= events_->size(); }
  void Reset() override { cursor_ = 0; }

 private:
  const std::string name_ = "replay";
  std::shared_ptr<const std::vector<StreamEvent>> events_;
  size_t cursor_ = 0;
};

stream::PatternSpec CountPattern() {
  stream::PatternSpec pattern;
  pattern.kind = stream::PatternKind::kCount;
  stream::StepPredicate step;
  step.category = "disaster";
  step.region = stark::STObject(
      stark::Geometry::MakeBox(stark::Envelope(10, 10, 80, 80)));
  step.pred = stark::JoinPredicate::Intersects();
  pattern.steps.push_back(step);
  pattern.threshold = 1;
  return pattern;
}

/// What one replay delivered: its counters and a digest of every window
/// start and matched event id, in delivery order.
struct Outcome {
  stream::StreamStats stats;
  uint64_t digest = 0;

  bool SameAnswer(const Outcome& o) const {
    return stats.windows_fired == o.stats.windows_fired &&
           stats.matches == o.stats.matches && digest == o.digest;
  }
};

void Expect(const stark::Status& status) {
  if (!status.ok()) throw stark::StatusError(status);
}

class StreamCep final : public Workload {
 public:
  explicit StreamCep(const Options& options)
      : options_(options),
        events_(options.smoke ? kSmokeEvents : kFullEvents),
        ctx_(kThreads) {}

  void Describe(Report* report) const override {
    report->Meta("events", std::to_string(events_));
    report->Meta("disorder", std::to_string(kDisorder));
    report->Meta("window", std::to_string(kWindow));
    report->Meta("threads", std::to_string(kThreads));
  }

  void Setup() override {
    stream::GeneratorOptions gen;
    gen.count = events_;
    gen.seed = options_.seed;
    gen.disorder = kDisorder;
    stream::GeneratorSource source(gen);
    schedule_ = std::make_shared<const std::vector<StreamEvent>>(
        source.Poll(source.schedule_size()));
  }

  void WarmUp() override {
    SpanRecorder off(false);
    outcomes_.push_back(Replay(&ctx_, &off));
  }

  Phase Measure(double seconds, SpanRecorder* spans) override {
    return ClosedLoop(seconds, options_.smoke ? 1 : 3,
                      [&] { outcomes_.push_back(Replay(&ctx_, spans)); });
  }

  void Check(Report* report) override {
    if (!reference_.has_value()) {
      // The same replay on one thread is the reference answer.
      stark::Context single(1);
      SpanRecorder off(false);
      const uint64_t start = NowNs();
      reference_ = Replay(&single, &off);
      single_thread_events_per_s_ =
          static_cast<double>(events_) /
          (static_cast<double>(NowNs() - start) / 1e9);
    }
    bool same = !outcomes_.empty();
    bool on_time = reference_->stats.late == 0;
    for (const Outcome& o : outcomes_) {
      same = same && o.SameAnswer(*reference_);
      on_time = on_time && o.stats.late == 0;
    }
    const uint64_t windows = (events_ + kWindow - 1) / kWindow;
    report->Gate("stream.matches_single_thread_replay", same,
                 std::to_string(reference_->stats.windows_fired) +
                     " windows, " + std::to_string(reference_->stats.matches) +
                     " matches over " + std::to_string(outcomes_.size()) +
                     " replays");
    report->Gate("stream.nothing_late", on_time &&
                     reference_->stats.windows_fired == windows,
                 "expected " + std::to_string(windows) + " windows");
    outcomes_.clear();
  }

  std::vector<stark::STObject> ProbeGeometries() const override {
    std::vector<stark::STObject> out;
    out.reserve(schedule_->size());
    for (const StreamEvent& e : *schedule_) out.emplace_back(e.obj.geo());
    return out;
  }

  void LayerMetrics(Report* report) override {
    report->Value("stream.single_thread_events_per_s", "1/s",
                  single_thread_events_per_s_);
  }

 private:
  Outcome Replay(stark::Context* ctx, SpanRecorder* spans) {
    ScopedSpan root(spans, "harness:replay");
    stream::StreamContext::Options query;
    query.window.size = kWindow;
    query.pattern = CountPattern();
    stream::StreamContext sc(ctx, query);
    sc.AddSource(std::make_unique<ReplaySource>(schedule_), kDisorder);
    Outcome outcome;
    uint64_t digest = 1469598103934665603ULL;  // FNV-1a
    auto mix = [&digest](int64_t v) {
      digest = (digest ^ static_cast<uint64_t>(v)) * 1099511628211ULL;
    };
    sc.SetSink([&](const stream::WindowResult& w) {
      mix(w.window.start);
      for (const stream::PatternMatch& m : w.matches) {
        mix(m.count);
        for (const StreamEvent& e : m.events) mix(e.id);
      }
    });
    while (!sc.AllExhausted()) {
      ScopedSpan step(spans, "stream:step", root.id());
      Expect(sc.Step().status());
    }
    {
      ScopedSpan flush(spans, "stream:flush", root.id());
      Expect(sc.FireReady());
      Expect(sc.Flush());
    }
    outcome.stats = sc.stats();
    outcome.digest = digest;
    return outcome;
  }

  const Options options_;
  const size_t events_;
  stark::Context ctx_;
  std::shared_ptr<const std::vector<StreamEvent>> schedule_;
  std::vector<Outcome> outcomes_;
  std::optional<Outcome> reference_;
  double single_thread_events_per_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeStreamCep(const Options& options) {
  return std::make_unique<StreamCep>(options);
}

}  // namespace perfbench

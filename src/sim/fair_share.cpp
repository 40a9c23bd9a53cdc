#include "sim/fair_share.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/profiler.hpp"

namespace amoeba::sim {

namespace {
// Work below this many units is considered drained (guards float error for
// tiny work amounts).
constexpr double kWorkEpsilon = 1e-12;
// A stream whose projected remaining time is below this is complete. Work
// units span wildly different scales (core-seconds vs bytes), so the
// robust epsilon is in *time*: double rounding on a completion timestamp
// can leave remaining work worth up to ~ns of service, and rescheduling it
// would advance the clock by less than one ulp — an infinite event loop.
constexpr double kTimeEpsilon = 1e-9;

// remap_ entry of a stream that completed.
constexpr std::uint32_t kGone = std::numeric_limits<std::uint32_t>::max();

bool drained(double remaining, double rate) noexcept {
  return remaining <= kWorkEpsilon ||
         (rate > 0.0 && remaining <= rate * kTimeEpsilon);
}

}  // namespace

FairShareResource::FairShareResource(Engine& engine, std::string name,
                                     double capacity, double interference)
    : engine_(engine),
      name_(std::move(name)),
      capacity_(capacity),
      interference_(interference) {
  AMOEBA_EXPECTS_MSG(capacity > 0.0, "resource capacity must be positive");
  AMOEBA_EXPECTS_MSG(interference >= 0.0, "interference must be >= 0");
  last_update_ = engine_.now();
  busy_mark_ = engine_.now();
}

FairShareResource::~FairShareResource() {
  if (completion_event_ != kNoEvent) engine_.cancel(completion_event_);
}

std::size_t FairShareResource::find(StreamId id) const noexcept {
  const auto it = std::lower_bound(
      streams_.begin(), streams_.end(), id,
      [](const Stream& s, StreamId key) { return s.id < key; });
  if (it == streams_.end() || it->id != id) return streams_.size();
  return static_cast<std::size_t>(it - streams_.begin());
}

StreamId FairShareResource::open(double work, double cap,
                                 CompletionFn on_complete,
                                 std::string_view /*label*/) {
  AMOEBA_EXPECTS(work >= 0.0);
  AMOEBA_EXPECTS(on_complete != nullptr);
  bank_progress();
  Stream s;
  s.id = next_id_++;
  s.remaining = work;
  s.cap = (cap <= 0.0) ? capacity_ : std::min(cap, capacity_);
  if (free_fns_.empty()) {
    s.fn = static_cast<std::uint32_t>(fns_.size());
    fns_.push_back(std::move(on_complete));
  } else {
    s.fn = free_fns_.back();
    free_fns_.pop_back();
    fns_[s.fn] = std::move(on_complete);
  }
  // The new id is the largest, so the stream goes last among equal caps.
  const auto at = std::upper_bound(
      by_cap_.begin(), by_cap_.end(), s.cap,
      [this](double c, std::uint32_t p) { return c < streams_[p].cap; });
  by_cap_.insert(at, static_cast<std::uint32_t>(streams_.size()));
  streams_.push_back(s);
  reallocate();
  return s.id;
}

double FairShareResource::close(StreamId id) {
  const std::size_t pos = find(id);
  if (pos == streams_.size()) return 0.0;
  bank_progress();
  const Stream s = streams_[pos];
  fns_[s.fn] = nullptr;
  free_fns_.push_back(s.fn);
  // Drop `pos` from the water-filling order; positions above it shift down.
  std::size_t w = 0;
  for (const std::uint32_t p : by_cap_) {
    if (p != pos) by_cap_[w++] = p > pos ? p - 1 : p;
  }
  by_cap_.pop_back();
  streams_.erase(streams_.begin() + static_cast<std::ptrdiff_t>(pos));
  reallocate();
  return s.remaining;
}

double FairShareResource::pressure() const noexcept {
  double demand = 0.0;
  for (const Stream& s : streams_) demand += s.cap;
  return demand / capacity_;
}

double FairShareResource::rate_of(StreamId id) const noexcept {
  const std::size_t pos = find(id);
  return pos == streams_.size() ? 0.0 : streams_[pos].rate;
}

double FairShareResource::utilization() const noexcept {
  return allocated_rate_ / capacity_;
}

double FairShareResource::busy_capacity_seconds(Time now) const noexcept {
  // Lazily extend the integral to `now` at the current allocation rate.
  if (now > busy_mark_) {
    busy_integral_ += allocated_rate_ * (now - busy_mark_);
    busy_mark_ = now;
  }
  return busy_integral_;
}

void FairShareResource::bank_progress() {
  const Time now = engine_.now();
  const double dt = now - last_update_;
  if (dt > 0.0) {
    for (Stream& s : streams_) {
      s.remaining = std::max(0.0, s.remaining - s.rate * dt);
    }
    busy_capacity_seconds(now);  // extend utilization integral
  }
  last_update_ = now;
}

void FairShareResource::reallocate() {
  AMOEBA_PROF_SCOPE(kFairShare);
  const Time now = engine_.now();
  busy_capacity_seconds(now);  // close integral at old rate

  // Progressive filling: process streams in ascending (cap, id) order; each
  // takes min(cap, remaining_capacity / remaining_streams). This is the
  // standard max-min fair ("water-filling") allocation.
  double remaining_capacity = capacity_;
  std::size_t remaining_streams = by_cap_.size();
  allocated_rate_ = 0.0;
  for (const std::uint32_t p : by_cap_) {
    Stream& s = streams_[p];
    const double equal_share =
        remaining_capacity / static_cast<double>(remaining_streams);
    s.rate = std::min(s.cap, equal_share);
    allocated_rate_ += s.rate;
    remaining_capacity -= s.rate;
    --remaining_streams;
  }

  // Utilization-dependent interference penalty (shared caches / memory
  // bandwidth): everyone slows together as the resource fills up. Without
  // it the penalty is 1.0, and x * 1.0 == x exactly, so the rescale below
  // runs unconditionally.
  double penalty = 1.0;
  if (interference_ > 0.0 && allocated_rate_ > 0.0) {
    const double utilization = allocated_rate_ / capacity_;
    penalty = 1.0 / (1.0 + interference_ * utilization);
    allocated_rate_ *= penalty;
  }

  // Reschedule the single completion event at the earliest finish. It moves
  // on every call, even when the earliest finish did not change: the
  // engine's trace hash covers schedule sequence numbers.
  if (completion_event_ != kNoEvent) {
    engine_.cancel(completion_event_);
    completion_event_ = kNoEvent;
  }
  Time earliest = std::numeric_limits<Time>::infinity();
  bool due_now = false;
  for (Stream& s : streams_) {
    s.rate *= penalty;
    if (drained(s.remaining, s.rate)) {
      due_now = true;
    } else if (s.rate > 0.0) {
      earliest = std::min(earliest, now + s.remaining / s.rate);
    }
  }
  if (due_now) earliest = now;
  if (std::isfinite(earliest)) {
    completion_event_ =
        engine_.schedule(earliest, [this] { on_completion_event(); });
  }
}

void FairShareResource::on_completion_event() {
  AMOEBA_PROF_SCOPE(kFairShare);
  completion_event_ = kNoEvent;
  bank_progress();
  // Own the batch buffer for the duration, so a callback that re-enters
  // this resource never sees it half-used.
  std::vector<CompletionFn> done;
  done.swap(done_);
  // Compact every drained stream out of streams_ (ties complete together,
  // in id order), remembering where each survivor moved.
  remap_.resize(streams_.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const Stream s = streams_[i];
    if (drained(s.remaining, s.rate)) {
      done.push_back(std::move(fns_[s.fn]));
      free_fns_.push_back(s.fn);
      remap_[i] = kGone;
    } else {
      remap_[i] = static_cast<std::uint32_t>(kept);
      streams_[kept++] = s;
    }
  }
  if (kept != streams_.size()) {
    streams_.resize(kept);
    std::size_t w = 0;
    for (const std::uint32_t p : by_cap_) {
      if (remap_[p] != kGone) by_cap_[w++] = remap_[p];
    }
    by_cap_.resize(w);
  }
  reallocate();
  // Fire callbacks after internal state is consistent; callbacks may open
  // new streams re-entrantly.
  for (CompletionFn& fn : done) fn();
  done.clear();
  done_.swap(done);
}

}  // namespace amoeba::sim

// Frozen reference copy of the original map-based max-min fair-share
// resource, kept as a bitwise test oracle for the flat one in
// src/sim/fair_share.cpp.
//
// This is the straightforward version the fast path replaced: streams in a
// std::map keyed by id, callbacks stored inline in the map nodes, and every
// reallocation building a fresh (cap, id) vector, sorting it and looking
// each stream up again by id. Do not optimise it; its only job is to be the
// arithmetic and the engine traffic (one cancel and one schedule per
// reallocation) the fast path must reproduce bit for bit. The per-tenant
// tag bookkeeping the original also carried never fed the arithmetic and
// is left out.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/engine.hpp"
#include "sim/fair_share.hpp"

namespace amoeba::sim::reference {

class FairShareOracle {
 public:
  using CompletionFn = std::function<void()>;

  FairShareOracle(Engine& engine, double capacity, double interference = 0.0)
      : engine_(engine), capacity_(capacity), interference_(interference) {
    AMOEBA_EXPECTS_MSG(capacity > 0.0, "resource capacity must be positive");
    AMOEBA_EXPECTS_MSG(interference >= 0.0, "interference must be >= 0");
    last_update_ = engine_.now();
    busy_mark_ = engine_.now();
  }
  ~FairShareOracle() {
    if (completion_event_ != kNoEvent) engine_.cancel(completion_event_);
  }
  FairShareOracle(const FairShareOracle&) = delete;
  FairShareOracle& operator=(const FairShareOracle&) = delete;

  StreamId open(double work, double cap, CompletionFn on_complete) {
    AMOEBA_EXPECTS(work >= 0.0);
    AMOEBA_EXPECTS(on_complete != nullptr);
    bank_progress();
    const StreamId id = next_id_++;
    Stream s;
    s.remaining = work;
    s.cap = (cap <= 0.0) ? capacity_ : std::min(cap, capacity_);
    s.on_complete = std::move(on_complete);
    streams_.emplace(id, std::move(s));
    reallocate();
    return id;
  }

  double close(StreamId id) {
    auto it = streams_.find(id);
    if (it == streams_.end()) return 0.0;
    bank_progress();
    const double remaining = it->second.remaining;
    streams_.erase(it);
    reallocate();
    return remaining;
  }

  [[nodiscard]] int active() const noexcept {
    return static_cast<int>(streams_.size());
  }

  [[nodiscard]] double pressure() const noexcept {
    double demand = 0.0;
    for (const auto& [id, s] : streams_) demand += s.cap;
    return demand / capacity_;
  }

  [[nodiscard]] double rate_of(StreamId id) const noexcept {
    auto it = streams_.find(id);
    return it == streams_.end() ? 0.0 : it->second.rate;
  }

  [[nodiscard]] double utilization() const noexcept {
    return allocated_rate_ / capacity_;
  }

  double busy_capacity_seconds(Time now) const noexcept {
    if (now > busy_mark_) {
      busy_integral_ += allocated_rate_ * (now - busy_mark_);
      busy_mark_ = now;
    }
    return busy_integral_;
  }

 private:
  static constexpr double kWorkEpsilon = 1e-12;
  static constexpr double kTimeEpsilon = 1e-9;

  struct Stream {
    double remaining = 0.0;
    double cap = 0.0;
    double rate = 0.0;
    CompletionFn on_complete;
  };

  void bank_progress() {
    const Time now = engine_.now();
    const double dt = now - last_update_;
    if (dt > 0.0) {
      for (auto& [id, s] : streams_) {
        s.remaining = std::max(0.0, s.remaining - s.rate * dt);
      }
      busy_capacity_seconds(now);
    }
    last_update_ = now;
  }

  void reallocate() {
    busy_capacity_seconds(engine_.now());
    std::vector<std::pair<double, StreamId>> by_cap;
    by_cap.reserve(streams_.size());
    for (const auto& [id, s] : streams_) by_cap.emplace_back(s.cap, id);
    std::sort(by_cap.begin(), by_cap.end());

    double remaining_capacity = capacity_;
    std::size_t remaining_streams = by_cap.size();
    allocated_rate_ = 0.0;
    for (const auto& [cap, id] : by_cap) {
      const double equal_share =
          remaining_capacity / static_cast<double>(remaining_streams);
      const double rate = std::min(cap, equal_share);
      streams_.at(id).rate = rate;
      allocated_rate_ += rate;
      remaining_capacity -= rate;
      --remaining_streams;
    }

    if (interference_ > 0.0 && allocated_rate_ > 0.0) {
      const double utilization = allocated_rate_ / capacity_;
      const double penalty = 1.0 / (1.0 + interference_ * utilization);
      for (auto& [id, s] : streams_) s.rate *= penalty;
      allocated_rate_ *= penalty;
    }

    if (completion_event_ != kNoEvent) {
      engine_.cancel(completion_event_);
      completion_event_ = kNoEvent;
    }
    Time earliest = std::numeric_limits<Time>::infinity();
    for (const auto& [id, s] : streams_) {
      if (s.remaining <= kWorkEpsilon ||
          (s.rate > 0.0 && s.remaining <= s.rate * kTimeEpsilon)) {
        earliest = engine_.now();
        break;
      }
      if (s.rate > 0.0) {
        earliest = std::min(earliest, engine_.now() + s.remaining / s.rate);
      }
    }
    if (std::isfinite(earliest)) {
      completion_event_ =
          engine_.schedule(earliest, [this] { on_completion_event(); });
    }
  }

  void on_completion_event() {
    completion_event_ = kNoEvent;
    bank_progress();
    std::vector<std::pair<StreamId, CompletionFn>> done;
    for (auto it = streams_.begin(); it != streams_.end();) {
      const Stream& s = it->second;
      if (s.remaining <= kWorkEpsilon ||
          (s.rate > 0.0 && s.remaining <= s.rate * kTimeEpsilon)) {
        done.emplace_back(it->first, std::move(it->second.on_complete));
        it = streams_.erase(it);
      } else {
        ++it;
      }
    }
    reallocate();
    for (auto& [id, fn] : done) fn();
  }

  Engine& engine_;
  double capacity_;
  double interference_;
  std::map<StreamId, Stream> streams_;
  StreamId next_id_ = 1;
  Time last_update_ = 0.0;
  EventId completion_event_ = kNoEvent;
  double allocated_rate_ = 0.0;
  mutable double busy_integral_ = 0.0;
  mutable Time busy_mark_ = 0.0;
};

}  // namespace amoeba::sim::reference

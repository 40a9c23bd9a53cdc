// Work-conserving max-min fair-shared resource.
//
// This is the ground-truth contention physics of the simulated cluster.
// A `FairShareResource` models one shared resource on a node — the CPU
// cores, the disk-IO bandwidth, or the NIC bandwidth. Clients open
// *streams*, each carrying an amount of `work` (core-seconds for CPU,
// bytes for bandwidth) and a per-stream rate cap (a container can use at
// most one core; a single TCP flow can be capped below line rate).
//
// At any instant the resource divides its capacity among active streams by
// max-min fairness (progressive filling): streams capped below the equal
// share keep their cap, the slack is redistributed among the rest. Whenever
// the active set changes, every stream's accrued progress is banked and the
// earliest completion is (re)scheduled on the engine. Completion order under
// equal remaining work is deterministic (stream-id order).
//
// The Amoeba controller never looks inside this class — it only observes
// latencies, exactly as on real hardware.
//
// Hot-path layout (see DESIGN.md §8): streams live in one contiguous vector
// in id order of trivially copyable records, a persistent index keeps them
// in (cap, id) water-filling order, and the completion callbacks sit in a
// side slab. No call sorts, walks a map or allocates once the buffers have
// grown to the peak stream count. The trace hashes pin the arithmetic, the
// completion order and the engine traffic (one cancel and one schedule per
// reallocation); the FairShareOracle tests hold them bit for bit to the
// reference in tests/sim/fair_share_reference.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/engine.hpp"

namespace amoeba::sim {

using StreamId = std::uint64_t;

class FairShareResource {
 public:
  using CompletionFn = std::function<void()>;

  /// `capacity` is in work-units per second (cores, or bytes/s).
  /// `interference` >= 0 models throughput loss that grows with overall
  /// utilization (shared-cache / memory-bandwidth contention on a CPU):
  /// every stream's allocated rate is scaled by 1 / (1 + interference · U)
  /// where U is the pre-penalty utilization. 0 disables the effect
  /// (pure max-min sharing, appropriate for IO/NIC bandwidth).
  FairShareResource(Engine& engine, std::string name, double capacity,
                    double interference = 0.0);
  ~FairShareResource();
  FairShareResource(const FairShareResource&) = delete;
  FairShareResource& operator=(const FairShareResource&) = delete;

  /// Open a stream with `work` units to process, a per-stream rate cap
  /// (`cap <= 0` means "uncapped": the full capacity), and a completion
  /// callback fired (via the engine, at the exact completion instant) when
  /// the work drains. `work` == 0 completes at the current time but still
  /// via an engine event (never re-entrantly).
  ///
  /// The trailing label is accepted and ignored, for callers that still
  /// pass one (perfbench/probes.cpp): the resource keeps no per-client
  /// demand.
  StreamId open(double work, double cap, CompletionFn on_complete,
                std::string_view /*label*/ = {});

  /// Abort a stream before completion. Returns the remaining work (0 if the
  /// stream was unknown or already complete).
  double close(StreamId id);

  /// Number of currently active streams.
  [[nodiscard]] int active() const noexcept {
    return static_cast<int>(streams_.size());
  }

  /// Demand pressure: total capped demand rate divided by capacity.
  /// 1.0 means the resource is exactly saturated; >1 oversubscribed.
  [[nodiscard]] double pressure() const noexcept;

  /// Instantaneous allocated rate of a stream (0 if unknown).
  [[nodiscard]] double rate_of(StreamId id) const noexcept;

  /// Fraction of capacity currently allocated (work-conserving utilization).
  [[nodiscard]] double utilization() const noexcept;

  /// Time-integral of utilization since construction. Lazily advances the
  /// integral to `now`, so it is also called internally for that side
  /// effect (hence no [[nodiscard]]).
  double busy_capacity_seconds(Time now) const noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] double capacity() const noexcept { return capacity_; }

 private:
  // The hot per-stream record. Trivially copyable, so erasing from the
  // middle of `streams_` is a plain memmove; the callback lives in `fns_`.
  struct Stream {
    StreamId id = 0;
    double remaining = 0.0;
    double cap = 0.0;   // effective cap (already clamped to capacity)
    double rate = 0.0;  // current allocated rate
    std::uint32_t fn = 0;  // slot in fns_
  };
  static_assert(std::is_trivially_copyable_v<Stream>);

  /// Position of `id` in streams_, or streams_.size() if it is not live.
  [[nodiscard]] std::size_t find(StreamId id) const noexcept;

  void bank_progress();  // accrue work done since last reallocation
  void reallocate();     // recompute max-min rates + reschedule completion
  void on_completion_event();

  Engine& engine_;
  std::string name_;
  double capacity_;
  double interference_;
  std::vector<Stream> streams_;  // ascending id; ids only grow, so open appends
  // Positions into streams_ in ascending (cap, id) order: the water-filling
  // order, kept up to date on open and on every removal.
  std::vector<std::uint32_t> by_cap_;
  std::vector<CompletionFn> fns_;        // callback slab, indexed by Stream::fn
  std::vector<std::uint32_t> free_fns_;  // vacant slots of fns_ (LIFO)
  std::vector<CompletionFn> done_;       // reused completed-callbacks batch
  std::vector<std::uint32_t> remap_;     // scratch: old -> new position
  StreamId next_id_ = 1;
  Time last_update_ = 0.0;
  EventId completion_event_ = kNoEvent;
  double allocated_rate_ = 0.0;          // sum of stream rates
  mutable double busy_integral_ = 0.0;   // ∫ allocated_rate dt
  mutable Time busy_mark_ = 0.0;
};

}  // namespace amoeba::sim

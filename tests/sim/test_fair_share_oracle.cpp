// Bitwise oracle for the flat fair-share resource: sim::FairShareResource
// must reproduce the frozen map-based reference in fair_share_reference.hpp
// bit for bit. Both are driven through the same seeded random script of
// opens, closes and probes, each on its own engine; every value either
// reports (stream ids, rates, pressure, utilization, the busy integral,
// close() results, completion instants and order) and the engine's trace
// hash must match exactly. A reassociated sum or a reordered fill shows up
// here long before it would move a golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "fair_share_reference.hpp"
#include "sim/fair_share.hpp"
#include "sim/random.hpp"

namespace amoeba::sim {
namespace {

struct StreamSpec {
  double work = 0.0;
  double cap = 0.0;
  int child = -1;  ///< spec its completion callback opens, -1 for none
};

enum class OpKind { kOpen, kClose, kCloseUnknown, kProbe };

struct Op {
  Time at = 0.0;
  OpKind kind = OpKind::kProbe;
  std::size_t spec = 0;  ///< kOpen: the stream; kClose: the stream to close
};

struct Script {
  double capacity = 1.0;
  double interference = 0.0;
  std::vector<StreamSpec> specs;
  std::vector<Op> ops;
};

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& xs) {
  return xs[rng.uniform_index(xs.size())];
}

/// Mixed caps (uncapped as 0 and as negative, tied, fractional, above
/// capacity), zero and sub-epsilon work, same-instant operations, chains
/// of re-entrant opens, and closes of live, finished and unknown streams.
Script make_script(std::uint64_t seed) {
  Rng rng(seed);
  Script sc;
  const double scale = pick(rng, std::vector<double>{1.0, 1.0, 1e8});
  sc.capacity = scale * pick(rng, std::vector<double>{1.0, 4.0, 40.0});
  sc.interference = pick(rng, std::vector<double>{0.0, 0.0, 0.4, 1.5});
  const bool bursty = rng.uniform() < 0.3;

  auto draw_spec = [&] {
    StreamSpec s;
    const double w = rng.uniform();
    if (w < 0.05) {
      s.work = 0.0;
    } else if (w < 0.1) {
      s.work = 1e-13 * scale;  // below the drain epsilon when scale is 1
    } else {
      s.work = rng.uniform(0.01, 2.0) * scale;
    }
    switch (rng.uniform_index(6)) {
      case 0: s.cap = 0.0; break;
      case 1: s.cap = -1.0; break;
      case 2: s.cap = scale; break;  // many streams tie on this cap
      case 3: s.cap = 0.25 * scale; break;
      case 4: s.cap = rng.uniform(0.1, 2.0) * scale; break;
      default: s.cap = 3.0 * sc.capacity; break;  // clamped to capacity
    }
    return s;
  };

  std::vector<std::size_t> opened;
  Time t = 0.0;
  for (int k = 0; k < 150; ++k) {
    if (rng.uniform() >= (bursty ? 0.7 : 0.2)) t += rng.exponential(4.0);
    Op op;
    op.at = t;
    const double u = rng.uniform();
    if (u < 0.5) {
      op.kind = OpKind::kOpen;
      op.spec = sc.specs.size();
      sc.specs.push_back(draw_spec());
      opened.push_back(op.spec);
      // A chain of streams, each opened by its predecessor's completion.
      std::size_t parent = op.spec;
      while (rng.uniform() < 0.35) {
        sc.specs[parent].child = static_cast<int>(sc.specs.size());
        parent = sc.specs.size();
        sc.specs.push_back(draw_spec());
      }
    } else if (u < 0.75 && !opened.empty()) {
      op.kind = OpKind::kClose;
      op.spec = pick(rng, opened);
    } else if (u < 0.85) {
      op.kind = OpKind::kCloseUnknown;
    }
    sc.ops.push_back(op);
  }
  return sc;
}

/// What a replay exercised, to check the scripts reach every case.
struct Coverage {
  int completions = 0;
  int reentrant_opens = 0;
  int live_closes = 0;
  int finished_closes = 0;
  int unknown_closes = 0;
  int peak_active = 0;
};

struct Replay {
  std::vector<std::uint64_t> log;  ///< every observed value, as raw bits
  Coverage cov;
};

template <typename Resource>
Resource make_resource(Engine& e, const Script& sc) {
  if constexpr (std::is_same_v<Resource, FairShareResource>) {
    return Resource(e, "r", sc.capacity, sc.interference);
  } else {
    return Resource(e, sc.capacity, sc.interference);
  }
}

template <typename Resource>
Replay replay(const Script& sc) {
  Engine e;
  Resource r = make_resource<Resource>(e, sc);
  Replay out;
  auto put = [&](double v) {
    out.log.push_back(std::bit_cast<std::uint64_t>(v));
  };
  auto put_u = [&](std::uint64_t v) { out.log.push_back(v); };

  constexpr StreamId kUnopened = 0;
  std::vector<StreamId> ids(sc.specs.size(), kUnopened);
  std::vector<bool> finished(sc.specs.size(), false);
  std::vector<bool> closed(sc.specs.size(), false);

  std::function<void(std::size_t)> open_spec = [&](std::size_t i) {
    const StreamSpec& s = sc.specs[i];
    ids[i] = r.open(s.work, s.cap, [&, i] {
      finished[i] = true;
      ++out.cov.completions;
      put_u(0xC0FFEE);
      put_u(i);
      put(e.now());
      if (sc.specs[i].child >= 0) {
        ++out.cov.reentrant_opens;
        open_spec(static_cast<std::size_t>(sc.specs[i].child));
      }
    });
    put_u(ids[i]);
  };

  auto probe = [&] {
    out.cov.peak_active = std::max(out.cov.peak_active, r.active());
    put_u(static_cast<std::uint64_t>(r.active()));
    put(r.pressure());
    put(r.utilization());
    put(r.busy_capacity_seconds(e.now()));
    for (const StreamId id : ids) {
      if (id != kUnopened) put(r.rate_of(id));
    }
  };

  for (std::size_t k = 0; k < sc.ops.size(); ++k) {
    e.schedule(sc.ops[k].at, [&, k] {
      const Op& op = sc.ops[k];
      switch (op.kind) {
        case OpKind::kOpen:
          open_spec(op.spec);
          break;
        case OpKind::kClose:
          if (finished[op.spec] || closed[op.spec]) {
            ++out.cov.finished_closes;
          } else {
            ++out.cov.live_closes;
          }
          closed[op.spec] = true;
          put(r.close(ids[op.spec]));
          break;
        case OpKind::kCloseUnknown:
          ++out.cov.unknown_closes;
          put(r.close(1'000'000 + k));
          break;
        case OpKind::kProbe:
          break;
      }
      probe();
    });
  }
  e.run();
  probe();
  put(e.now());
  put_u(e.executed());
  put_u(e.trace_hash());
  return out;
}

TEST(FairShareOracle, FlatLayoutIsBitIdenticalToTheMapBasedReference) {
  Coverage total;
  int with_interference = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Script sc = make_script(seed);
    const Replay want = replay<reference::FairShareOracle>(sc);
    const Replay got = replay<FairShareResource>(sc);
    ASSERT_EQ(got.log.size(), want.log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.log.size(); ++i) {
      ASSERT_EQ(got.log[i], want.log[i])
          << "seed " << seed << ", first difference at log entry " << i
          << ": got " << std::bit_cast<double>(got.log[i]) << " want "
          << std::bit_cast<double>(want.log[i]);
    }
    if (sc.interference > 0.0) ++with_interference;
    total.completions += got.cov.completions;
    total.reentrant_opens += got.cov.reentrant_opens;
    total.live_closes += got.cov.live_closes;
    total.finished_closes += got.cov.finished_closes;
    total.unknown_closes += got.cov.unknown_closes;
    total.peak_active = std::max(total.peak_active, got.cov.peak_active);
  }
  // The scripts reach every case the test claims to cover.
  EXPECT_GT(with_interference, 50);
  EXPECT_LT(with_interference, 250);
  EXPECT_GT(total.completions, 1000);
  EXPECT_GT(total.reentrant_opens, 100);
  EXPECT_GT(total.live_closes, 100);
  EXPECT_GT(total.finished_closes, 100);
  EXPECT_GT(total.unknown_closes, 100);
  EXPECT_GE(total.peak_active, 40);
}

TEST(FairShareOracle, TiedCapsFillInIdOrderAfterRemovals) {
  // Streams tied on one cap, with removals from the middle of both the id
  // order and the water-filling order: the survivors must keep the
  // reference's (cap, id) order and so its rates, bit for bit.
  Engine e1, e2;
  FairShareResource flat(e1, "r", 3.0, 0.7);
  reference::FairShareOracle ref(e2, 3.0, 0.7);
  std::vector<StreamId> a, b;
  const double caps[] = {1.0, 0.3, 1.0, 2.5, 0.3, 1.0, 0.0, 1.0, 0.3};
  for (const double cap : caps) {
    a.push_back(flat.open(10.0, cap, [] {}));
    b.push_back(ref.open(10.0, cap, [] {}));
  }
  ASSERT_EQ(a, b);
  for (const std::size_t i : {2u, 4u, 0u, 8u}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(flat.close(a[i])),
              std::bit_cast<std::uint64_t>(ref.close(b[i])));
    for (const StreamId id : a) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(flat.rate_of(id)),
                std::bit_cast<std::uint64_t>(ref.rate_of(id)))
          << "stream " << id << " after closing " << a[i];
    }
  }
  EXPECT_EQ(flat.active(), ref.active());
}

}  // namespace
}  // namespace amoeba::sim

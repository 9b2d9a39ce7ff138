#include "drivers.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>

#include "cmp/cmp_system.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "gline/barrier_network.h"
#include "gline/hierarchy.h"
#include "noc/mesh.h"
#include "sim/engine.h"
#include "spans.h"

// Counting allocator for allocs-per-operation. The counter is
// thread-local: the benchmark runs the simulator on its main thread
// only, so no atomic read-modify-write is added to the end-to-end
// passes that share this binary.
namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

// GCC pairs these replaced operators against inlined call sites and
// mis-reports a new/free mismatch; every replaced operator here uses
// the malloc family consistently.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++t_allocs;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace glbench {

std::uint64_t AllocCount() { return t_allocs; }

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  GLB_CHECK(!v.empty()) << "quantile of no samples";
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

namespace {

using namespace glb;

// Each driver repeats a fixed batch of operations kReps times and
// reports the median batch's time per operation, so one descheduled
// batch does not move the number.
constexpr int kReps = 15;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

void EngineDriver(std::vector<Metric>& out) {
  constexpr std::uint64_t kEvents = 16384;
  sim::Engine engine;
  std::uint64_t fired = 0;
  const auto batch = [&]() {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      engine.ScheduleAt(engine.Now() + i % 1024, [&fired]() { ++fired; });
    }
    engine.RunUntilIdle();
  };
  batch();  // warm the event pool
  std::vector<double> ns;
  const std::uint64_t allocs0 = AllocCount();
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    batch();
    ns.push_back(NsSince(t0) / kEvents);
  }
  const std::uint64_t allocs = AllocCount() - allocs0;
  GLB_CHECK(fired == kEvents * (kReps + 1)) << "engine driver lost events";
  out.push_back({"sim.schedule_ns", Median(ns), "ns"});
  out.push_back({"sim.allocs_per_event",
                 static_cast<double>(allocs) / static_cast<double>(kEvents * kReps),
                 "allocs/event"});
}

void NocDriver(std::uint64_t seed, std::vector<Metric>& out) {
  constexpr std::uint32_t kSide = 16;
  constexpr int kMsgs = 256;
  sim::Engine engine;
  StatSet stats;
  noc::MeshConfig cfg;
  cfg.rows = kSide;
  cfg.cols = kSide;
  noc::Mesh mesh(engine, cfg, stats);
  Rng rng(seed);
  std::vector<std::pair<CoreId, CoreId>> pairs;
  for (int i = 0; i < kMsgs; ++i) {
    pairs.emplace_back(static_cast<CoreId>(rng.NextBelow(kSide * kSide)),
                       static_cast<CoreId>(rng.NextBelow(kSide * kSide)));
  }
  std::uint64_t delivered = 0;
  const auto batch = [&]() {
    for (const auto& [src, dst] : pairs) {
      noc::Packet p;
      p.src = src;
      p.dst = dst;
      p.bytes = 75;  // one Table-1 link width: a single-flit message
      p.deliver = [&delivered]() { ++delivered; };
      mesh.Send(std::move(p));
    }
    engine.RunUntilIdle();
  };
  batch();
  std::vector<double> ns;
  const std::uint64_t allocs0 = AllocCount();
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    batch();
    ns.push_back(NsSince(t0) / kMsgs);
  }
  const std::uint64_t allocs = AllocCount() - allocs0;
  GLB_CHECK(delivered == std::uint64_t{kMsgs} * (kReps + 1)) << "noc driver lost messages";
  out.push_back({"noc.send_ns", Median(ns), "ns"});
  out.push_back({"noc.allocs_per_msg",
                 static_cast<double>(allocs) / static_cast<double>(kMsgs * kReps),
                 "allocs/msg"});
}

void CoherenceDriver(std::vector<Metric>& out) {
  constexpr int kLines = 64;
  constexpr int kHits = 1024;
  constexpr CoreId kWriter = 0;
  constexpr CoreId kReader = 15;  // far corner of the 4x4 mesh
  cmp::CmpSystem sys(cmp::CmpConfig::WithCores(16));
  const Addr base = sys.allocator().AllocLines(std::uint64_t{kLines} * 64);
  const auto line = [base](int j) { return base + static_cast<Addr>(j) * 64; };
  const auto load = [&sys](CoreId c, Addr a) {
    Word got = 0;
    bool done = false;
    sys.fabric().l1(c).Load(a, [&](Word w) {
      got = w;
      done = true;
    });
    sys.engine().RunUntilIdle();
    GLB_CHECK(done) << "coherence driver: load did not complete";
    return got;
  };

  load(kReader, line(0));
  std::vector<double> hit_ns;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kHits; ++i) load(kReader, line(0));
    hit_ns.push_back(NsSince(t0) / kHits);
  }
  out.push_back({"coherence.hit_ns", Median(hit_ns), "ns"});

  std::vector<double> miss_ns;
  std::uint64_t allocs = 0;
  Word value = 0;
  for (int r = 0; r < kReps; ++r) {
    double ns = 0.0;
    for (int j = 0; j < kLines; ++j) {
      // Untimed: the writer takes the line modified, invalidating the
      // reader's copy, so the timed load is a remote GetS round trip.
      bool stored = false;
      sys.fabric().l1(kWriter).Store(line(j), ++value, [&stored]() { stored = true; });
      sys.engine().RunUntilIdle();
      GLB_CHECK(stored) << "coherence driver: store did not complete";
      const std::uint64_t allocs0 = AllocCount();
      const auto t0 = Clock::now();
      const Word got = load(kReader, line(j));
      ns += NsSince(t0);
      allocs += AllocCount() - allocs0;
      GLB_CHECK(got == value) << "coherence driver: stale value " << got;
    }
    miss_ns.push_back(ns / kLines);
  }
  GLB_CHECK(sys.stats().CounterValue("coh.sent.FwdGetS") >= std::uint64_t{kLines} * kReps)
      << "coherence driver: loads were not forwarded to the owner";
  out.push_back({"coherence.remote_miss_ns", Median(miss_ns), "ns"});
  out.push_back({"coherence.allocs_per_miss",
                 static_cast<double>(allocs) / static_cast<double>(kLines * kReps),
                 "allocs/miss"});
}

// One barrier episode: every core arrives at cycle Now()+1.
template <typename Net>
double EpisodeNs(sim::Engine& engine, Net& net, std::uint32_t cores, int episodes) {
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    std::uint64_t released = 0;
    const auto t0 = Clock::now();
    for (int e = 0; e < episodes; ++e) {
      engine.ScheduleAt(engine.Now() + 1, [&]() {
        for (CoreId c = 0; c < cores; ++c) net.Arrive(0, c, [&released]() { ++released; });
      });
      engine.RunUntilIdle();
    }
    ns.push_back(NsSince(t0) / episodes);
    GLB_CHECK(released == std::uint64_t{cores} * static_cast<std::uint64_t>(episodes))
        << "gline driver: " << released << " releases";
  }
  return Median(ns);
}

void GlineDriver(std::vector<Metric>& out) {
  {
    const cmp::CmpConfig cfg = cmp::CmpConfig::Table1();
    sim::Engine engine;
    StatSet stats;
    gline::BarrierNetwork net(engine, cfg.rows, cfg.cols, cfg.gline, stats);
    out.push_back({"gline.flat_episode_ns", EpisodeNs(engine, net, cfg.num_cores(), 200), "ns"});
  }
  {
    sim::Engine engine;
    StatSet stats;
    gline::HierarchicalBarrierNetwork net(engine, 16, 16, gline::HierConfig{}, stats);
    out.push_back({"gline.hier_episode_ns", EpisodeNs(engine, net, 256, 50), "ns"});
  }
}

}  // namespace

std::vector<Metric> RunDrivers(std::uint64_t seed) {
  std::vector<Metric> out;
  EngineDriver(out);
  NocDriver(seed, out);
  CoherenceDriver(out);
  GlineDriver(out);
  return out;
}

}  // namespace glbench

// Per-layer drivers: each times one layer's public call in isolation,
// on a warm instance, and counts the heap allocations it makes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace glbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Heap allocations made so far by the calling thread (every
/// `operator new` in this binary goes through a counting replacement).
std::uint64_t AllocCount();

double Median(std::vector<double> v);

/// The q-quantile (0 <= q <= 1), interpolated linearly between order
/// statistics.
double Quantile(std::vector<double> v, double q);

/// Runs every driver and returns its metrics:
///   sim.schedule_ns, sim.allocs_per_event   Engine::ScheduleAt + RunUntilIdle
///   noc.send_ns, noc.allocs_per_msg         Mesh::Send on a 16x16 mesh
///   coherence.hit_ns                        L1 load hit
///   coherence.remote_miss_ns,
///   coherence.allocs_per_miss               L1 load of a line another
///                                           core holds modified (GetS
///                                           to the home bank, forwarded
///                                           to the owner, data back)
///   gline.flat_episode_ns                   Arrive on all 32 cores
///   gline.hier_episode_ns                   Arrive on all 256 cores, GLH
/// `seed` picks the NoC driver's source/destination pairs.
std::vector<Metric> RunDrivers(std::uint64_t seed);

}  // namespace glbench

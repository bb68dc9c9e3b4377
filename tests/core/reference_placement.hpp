// Reference RIAL host choice for the placement tests: the §3.3.2 rule
// computed from first principles on every call — live utilizations, the
// per-GPU Server::best_fitting_gpu search, and direct per-candidate
// communication volumes — with no load index, no cached feasibility and no
// comm memo. MlfPlacement::choose_host must agree with it on every query.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/placement.hpp"

namespace mlfs::core::reference {

inline std::optional<HostChoice> choose_host(const PlacementParams& params,
                                             const SchedulerContext& ctx, const Task& task,
                                             bool migrating) {
  const Cluster& cluster = ctx.cluster;
  struct Candidate {
    ServerId server;
    int gpu;
    ResourceVector util;
    double comm;
  };
  std::vector<Candidate> candidates;
  double max_comm = 0.0;
  for (const Server& s : cluster.servers()) {
    if (!s.accepts_placements() || s.overloaded(ctx.hr)) continue;
    if (migrating && s.id() == task.server) continue;
    const int gpu = s.best_fitting_gpu(task, ctx.hr);
    if (gpu == kNoGpu) continue;
    const double comm =
        params.use_topology
            ? MlfPlacement::comm_volume_with_server_topology(cluster, task, s.id(),
                                                             params.rack_affinity)
            : MlfPlacement::comm_volume_with_server(cluster, task, s.id());
    candidates.push_back({s.id(), gpu, s.utilization(), comm});
    max_comm = std::max(max_comm, comm);
  }
  if (candidates.empty()) return std::nullopt;

  ResourceVector ideal = candidates.front().util;
  for (const Candidate& c : candidates) {
    for (std::size_t i = 0; i < kNumResources; ++i) {
      ideal.at(i) = std::min(ideal.at(i), c.util.at(i));
    }
  }
  // Rack-spread dimension: fraction of the task's placed job siblings per rack.
  std::vector<double> spread;
  if (params.spread_racks) {
    int racks = 1;
    for (const Server& s : cluster.servers()) racks = std::max(racks, cluster.rack_of(s.id()) + 1);
    spread.assign(static_cast<std::size_t>(racks), 0.0);
    const Job& job = cluster.job(task.job);
    int placed = 0;
    for (const TaskId tid : job.tasks()) {
      const Task& other = cluster.task(tid);
      if (tid == task.id || !other.placed() || job.task_count() <= 1) continue;
      ++placed;
      spread[static_cast<std::size_t>(cluster.rack_of(other.server))] += 1.0;
    }
    for (double& f : spread) f = placed > 0 ? f / placed : 0.0;
  }

  const Candidate* best = nullptr;
  double best_distance = 0.0;
  for (const Candidate& c : candidates) {
    double sq = 0.0;
    for (std::size_t i = 0; i < kNumResources; ++i) {
      const double d = c.util.at(i) - ideal.at(i);
      sq += d * d;
    }
    if (params.use_bandwidth && max_comm > 0.0) {
      const double d = c.comm / max_comm - 1.0;
      sq += d * d;
    }
    if (params.spread_racks) {
      const double d =
          params.spread_penalty * spread[static_cast<std::size_t>(cluster.rack_of(c.server))];
      sq += d * d;
    }
    if (migrating) {
      const double q =
          task.state_size_mb / cluster.flow_bandwidth_between(task.server, c.server) / 60.0;
      sq += q * q;
    }
    const double distance = std::sqrt(sq);
    if (best == nullptr || distance < best_distance) {
      best = &c;
      best_distance = distance;
    }
  }
  return HostChoice{best->server, best->gpu};
}

}  // namespace mlfs::core::reference

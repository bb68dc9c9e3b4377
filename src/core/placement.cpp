#include "core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/binio.hpp"
#include "common/expect.hpp"

namespace mlfs::core {

MlfPlacement::MlfPlacement(const PlacementParams& params) : params_(params) {}

namespace {
/// Shared walk over a task's *placed* communication peers, in the canonical
/// order: DAG parents, DAG children, then all-reduce ring neighbours. Calls
/// `fn(peer_task, edge_volume_mb)` for each. Every comm-volume computation
/// (direct or memoized) funnels through this walk so they accumulate the
/// same terms in the same order — the bit-exactness contract.
template <typename PeerFn>
void for_each_placed_peer(const Cluster& cluster, const Task& task, const PeerFn& fn) {
  const Job& job = cluster.job(task.job);
  const Dag& dag = job.dag();
  const std::size_t k = task.local_index;
  auto edge_volume = [&job](const Task& a, const Task& b) {
    return b.is_parameter_server || a.is_parameter_server ? job.spec().comm_volume_ps_mb
                                                          : job.spec().comm_volume_ww_mb;
  };
  auto visit = [&](std::size_t other_index) {
    const Task& other = cluster.task(job.task_at(other_index));
    if (other.placed()) fn(other, edge_volume(task, other));
  };
  for (const std::size_t p : dag.parents(k)) visit(p);
  for (const std::size_t c : dag.children(k)) visit(c);
  if (job.spec().comm == CommStructure::AllReduce && job.task_count() > 1) {
    visit((k + 1) % job.task_count());
    visit((k + job.task_count() - 1) % job.task_count());
  }
}

/// `weight(peer_server)` scores each placed peer's volume contribution.
template <typename WeightFn>
double weighted_comm_volume(const Cluster& cluster, const Task& task, const WeightFn& weight) {
  double volume = 0.0;
  for_each_placed_peer(cluster, task, [&volume, &weight](const Task& other, double edge) {
    volume += weight(other.server) * edge;
  });
  return volume;
}

/// Rack-spread dimension (PlacementParams::spread_racks): fraction of the
/// task's already-placed job siblings that sit in `rack`. The ideal host
/// has none co-racked, so the distance term is the fraction itself. One
/// walk fills the count for every rack so the candidate loop is O(1) per
/// candidate.
std::vector<double> rack_peer_fractions(const Cluster& cluster, const Task& task) {
  int max_rack = 0;
  for (ServerId sid = 0; sid < cluster.server_count(); ++sid) {
    max_rack = std::max(max_rack, cluster.rack_of(sid));
  }
  std::vector<double> frac(static_cast<std::size_t>(max_rack) + 1, 0.0);
  const Job& job = cluster.job(task.job);
  if (job.task_count() <= 1) return frac;
  int placed_peers = 0;
  for (const TaskId tid : job.tasks()) {
    if (tid == task.id) continue;
    const Task& other = cluster.task(tid);
    if (!other.placed()) continue;
    ++placed_peers;
    frac[static_cast<std::size_t>(cluster.rack_of(other.server))] += 1.0;
  }
  if (placed_peers > 0) {
    for (double& f : frac) f /= static_cast<double>(placed_peers);
  }
  return frac;
}
}  // namespace

double MlfPlacement::comm_volume_with_server(const Cluster& cluster, const Task& task,
                                             ServerId server) {
  return weighted_comm_volume(cluster, task, [server](ServerId peer) {
    return peer == server ? 1.0 : 0.0;
  });
}

double MlfPlacement::comm_volume_with_server_topology(const Cluster& cluster, const Task& task,
                                                      ServerId server, double rack_affinity) {
  const int rack = cluster.rack_of(server);
  return weighted_comm_volume(cluster, task,
                              [&cluster, server, rack, rack_affinity](ServerId peer) {
                                if (peer == server) return 1.0;
                                return cluster.rack_of(peer) == rack ? rack_affinity : 0.0;
                              });
}

const double* MlfPlacement::comm_vector(const Cluster& cluster, const Task& task) const {
  if (memo_slots_.empty()) {
    memo_stride_ = cluster.server_count();
    memo_slots_.assign(std::max<std::size_t>(1, params_.comm_memo_slots), MemoSlot{});
    memo_arena_.reserve(memo_slots_.size() * memo_stride_);
    memo_index_.reserve(memo_slots_.size());
  }
  // A restored memo carries its own stride; rows must span the fleet.
  MLFS_EXPECT(memo_stride_ == cluster.server_count());
  // Keyed on the *owning job's* placement epoch: the peer walk below only
  // visits same-job tasks, so other jobs' placements cannot change this
  // vector — the old global-epoch key invalidated on every placement
  // anywhere and collapsed the hit rate as the fleet grew.
  const std::uint64_t epoch = cluster.job_placement_epoch(task.job);
  std::size_t slot;
  if (const auto it = memo_index_.find(task.id); it != memo_index_.end()) {
    slot = it->second;
    if (memo_slots_[slot].epoch == epoch) {
      ++stats_.comm_cache_hits;
      return memo_arena_.data() + slot * memo_stride_;
    }
  } else {
    // Deterministic round-robin eviction keeps the arena a fixed memory
    // bound regardless of how many tasks queue up. Slots fill in ascending
    // order, so the arena grows one row at a time until it wraps.
    slot = memo_cursor_;
    memo_cursor_ = (memo_cursor_ + 1) % memo_slots_.size();
    if (memo_slots_[slot].task != kInvalidTask) memo_index_.erase(memo_slots_[slot].task);
    memo_index_.emplace(task.id, static_cast<std::uint32_t>(slot));
    memo_slots_[slot].task = task.id;
    if (memo_arena_.size() < (slot + 1) * memo_stride_) {
      memo_arena_.resize((slot + 1) * memo_stride_);
    }
  }
  ++stats_.comm_cache_misses;
  memo_slots_[slot].epoch = epoch;
  double* const begin = memo_arena_.data() + slot * memo_stride_;
  std::fill(begin, begin + memo_stride_, 0.0);
  auto vec = [begin](ServerId s) -> double& { return begin[s]; };
  if (!params_.use_topology) {
    for_each_placed_peer(cluster, task, [&vec](const Task& other, double edge) {
      vec(other.server) += edge;
    });
  } else {
    // Scatter each peer's contribution to its own server (weight 1) and to
    // every other server of its rack (weight rack_affinity): for any fixed
    // destination this adds the same nonzero terms, in the same peer order,
    // as the per-server weighted sum.
    const int spr = cluster.config().servers_per_rack;
    const std::size_t n = cluster.server_count();
    const double affinity = params_.rack_affinity;
    for_each_placed_peer(cluster, task, [&](const Task& other, double edge) {
      vec(other.server) += edge;
      std::size_t lo = 0;
      std::size_t hi = n;
      if (spr > 0) {
        lo = static_cast<std::size_t>(cluster.rack_of(other.server)) *
             static_cast<std::size_t>(spr);
        hi = std::min(n, lo + static_cast<std::size_t>(spr));
      }
      for (std::size_t s = lo; s < hi; ++s) {
        if (s != static_cast<std::size_t>(other.server)) {
          vec(static_cast<ServerId>(s)) += affinity * edge;
        }
      }
    });
  }
  return begin;
}

std::optional<HostChoice> MlfPlacement::choose_host(const SchedulerContext& ctx, const Task& task,
                                                    bool migrating) const {
  const Cluster& cluster = ctx.cluster;
  const double* comm = comm_vector(cluster, task);

  // One usage product for the whole candidate loop: it is the same value
  // Server::fits_usage_without_overload would recompute per candidate.
  const ResourceVector usage = task.demand * task.usage_factor;
  const double u_gpu = usage[Resource::Gpu];
  const double u_cpu = usage[Resource::Cpu];
  const double u_mem = usage[Resource::Mem];
  const double u_net = usage[Resource::Net];

  // Pass 1: one linear scan of the underloaded partition (ascending id)
  // that decides feasibility and folds the ideal host's components.
  // Seeding the component-wise min from the first feasible candidate is
  // exact (min(x, x) == x).
  feasible_.clear();
  ResourceVector ideal_util;
  double max_comm = 0.0;
  const std::vector<ServerId>& under = cluster.underloaded_index(ctx.hr);
  feasible_.reserve(under.size());
  for (const ServerId sid : under) {
    if (migrating && sid == task.server) continue;
    ++stats_.candidates_scanned;
    // Feasibility from the load index's refresh-time caches: the
    // utilization's CPU/MEM/NET components *are* the server's usage sums,
    // so together with the cached least-loaded GPU load these four
    // comparisons are exactly Server::fits_usage_without_overload on the
    // least-loaded GPU (the liveness test is vacuous — the underloaded
    // partition only holds up servers). And the least-loaded GPU's verdict
    // decides the server: every other GPU carries load >= the least-loaded
    // one, and FP addition of the same usage is monotone, so when the
    // least-loaded GPU overflows hr, so does every other.
    const ResourceVector& util = cluster.cached_utilization(sid);
    if (util[Resource::Cpu] + u_cpu > ctx.hr || util[Resource::Mem] + u_mem > ctx.hr ||
        util[Resource::Net] + u_net > ctx.hr ||
        cluster.cached_least_gpu_load(sid) + u_gpu > ctx.hr) {
      continue;
    }
    if (feasible_.empty()) {
      ideal_util = util;
    } else {
      for (std::size_t i = 0; i < kNumResources; ++i) {
        ideal_util.at(i) = std::min(ideal_util.at(i), util.at(i));
      }
    }
    max_comm = std::max(max_comm, comm[sid]);
    feasible_.emplace_back(sid, cluster.cached_least_gpu(sid));
  }
  if (feasible_.empty()) return std::nullopt;

  // Pass 2: Euclidean distance of each feasible server to the ideal
  // virtual host; the first minimum (lowest id) wins.
  std::vector<double> spread;
  if (params_.spread_racks) spread = rack_peer_fractions(cluster, task);
  ServerId best_server = feasible_.front().first;
  int best_gpu = feasible_.front().second;
  double best_distance = 0.0;
  bool have_best = false;
  for (const auto& [sid, gpu] : feasible_) {
    const ResourceVector& util = cluster.cached_utilization(sid);
    double sq = 0.0;
    for (std::size_t i = 0; i < kNumResources; ++i) {
      const double d = util.at(i) - ideal_util.at(i);
      sq += d * d;
    }
    if (params_.use_bandwidth && max_comm > 0.0) {
      const double d = comm[sid] / max_comm - 1.0;  // ideal = the max
      sq += d * d;
    }
    if (params_.spread_racks) {
      const double d =
          params_.spread_penalty * spread[static_cast<std::size_t>(cluster.rack_of(sid))];
      sq += d * d;  // ideal = no job siblings in this fault domain
    }
    if (migrating) {
      // Movement degradation q ([10]'s model): minutes of disruption to
      // transfer the task's state to *this* destination, over the
      // topology-aware flow bandwidth — cross-rack moves pay the slower
      // inter-rack share. On a flat network q is one constant for every
      // candidate, so it shifts all distances uniformly and cannot flip a
      // choice.
      const double q =
          task.state_size_mb / cluster.flow_bandwidth_between(task.server, sid) / 60.0;
      sq += q * q;  // distance of q to its ideal 0
    }
    const double distance = std::sqrt(sq);
    if (!have_best || distance < best_distance) {
      have_best = true;
      best_server = sid;
      best_gpu = gpu;
      best_distance = distance;
    }
  }
  return HostChoice{best_server, best_gpu};
}

void MlfPlacement::save_state(io::BinWriter& w) const {
  // Exact arena layout — slot table, cursor, and each occupied slot's
  // volume vector in slot order — so the restored memo hits and evicts
  // exactly like the uninterrupted one would.
  w.u64(memo_stride_);
  w.u64(memo_slots_.size());
  w.u64(memo_cursor_);
  for (std::size_t slot = 0; slot < memo_slots_.size(); ++slot) {
    const MemoSlot& s = memo_slots_[slot];
    w.u64(s.task);
    w.u64(s.epoch);
    if (s.task == kInvalidTask) continue;
    const double* const begin = memo_arena_.data() + slot * memo_stride_;
    for (std::size_t i = 0; i < memo_stride_; ++i) w.f64(begin[i]);
  }
  w.u64(stats_.candidates_scanned);
  w.u64(stats_.comm_cache_hits);
  w.u64(stats_.comm_cache_misses);
}

void MlfPlacement::restore_state(io::BinReader& r) {
  // Every count is checked before anything is allocated for it: a
  // checksum-valid but crafted payload must not size the arena or leave a
  // cursor or slot that comm_vector would index out of range.
  const auto reject = [](const std::string& detail) {
    throw ContractViolation("placement snapshot: comm memo " + detail);
  };
  const std::uint64_t stride = r.u64();
  const std::uint64_t slot_count = r.u64();
  const std::uint64_t cursor = r.u64();
  const std::size_t capacity = std::max<std::size_t>(1, params_.comm_memo_slots);
  if (slot_count != 0 && slot_count != capacity) {
    reject("has " + std::to_string(slot_count) + " slots, expected " + std::to_string(capacity) +
           " (or 0 for an unused memo)");
  }
  if (slot_count == 0 && (stride != 0 || cursor != 0)) {
    reject("has no slots but a stride or cursor");
  }
  if (slot_count != 0 && cursor >= slot_count) {
    reject("cursor " + std::to_string(cursor) + " out of range for " +
           std::to_string(slot_count) + " slots");
  }
  if (slot_count != 0 && stride == 0) reject("has slots but a zero stride");
  // A used memo always holds slot 0, so at least one full row follows.
  if (slot_count != 0 && stride > r.remaining() / sizeof(double)) {
    reject("row of " + std::to_string(stride) + " doubles exceeds the " +
           std::to_string(r.remaining()) + " bytes left");
  }
  std::vector<MemoSlot> slots(static_cast<std::size_t>(slot_count));
  std::vector<double> arena;
  std::unordered_map<TaskId, std::uint32_t> index;
  std::size_t occupied = 0;  // occupied slots form the prefix [0, occupied)
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    MemoSlot& s = slots[slot];
    s.task = static_cast<TaskId>(r.u64());
    s.epoch = r.u64();
    if (s.task == kInvalidTask) continue;
    if (occupied != slot) reject("slot " + std::to_string(slot) + " occupied after a free one");
    if (!index.emplace(s.task, static_cast<std::uint32_t>(slot)).second) {
      reject("holds task " + std::to_string(s.task) + " twice");
    }
    ++occupied;
    for (std::uint64_t i = 0; i < stride; ++i) arena.push_back(r.f64());
  }
  if (occupied < slots.size() && cursor != occupied) {
    reject("cursor " + std::to_string(cursor) + " does not follow the " +
           std::to_string(occupied) + " filled slots");
  }
  if (slot_count != 0 && occupied == 0) reject("is sized but holds no slot");
  memo_stride_ = static_cast<std::size_t>(stride);
  memo_cursor_ = static_cast<std::size_t>(cursor);
  memo_slots_ = std::move(slots);
  memo_arena_ = std::move(arena);
  memo_index_ = std::move(index);
  stats_.candidates_scanned = static_cast<std::size_t>(r.u64());
  stats_.comm_cache_hits = static_cast<std::size_t>(r.u64());
  stats_.comm_cache_misses = static_cast<std::size_t>(r.u64());
}

}  // namespace mlfs::core

#include "sim/metrics.hpp"

#include <sstream>

#include "common/table.hpp"

namespace mlfs {

std::string RunMetrics::summary() const {
  std::ostringstream os;
  os << scheduler << ": jobs=" << job_count;
  if (jobs_injected > 0) os << " (" << jobs_injected << " streamed)";
  os
     << " avgJCT=" << format_double(average_jct_minutes(), 1) << "min"
     << " makespan=" << format_double(makespan_hours, 1) << "h"
     << " deadline=" << format_double(100.0 * deadline_ratio, 1) << "%"
     << " wait=" << format_double(average_waiting_seconds(), 0) << "s"
     << " acc=" << format_double(average_accuracy, 3)
     << " accOK=" << format_double(100.0 * accuracy_ratio, 1) << "%"
     << " bw=" << format_double(bandwidth_tb, 2) << "TB"
     << " sched=" << format_double(sched_overhead_ms, 2) << "ms"
     << " rounds=" << sched_rounds;
  if (candidates_scanned > 0) {
    os << " scans=" << candidates_scanned;
    const std::size_t lookups = comm_cache_hits + comm_cache_misses;
    if (lookups > 0) {
      os << " commHit="
         << format_double(100.0 * static_cast<double>(comm_cache_hits) /
                              static_cast<double>(lookups),
                          1)
         << "%";
    }
  }
  if (jobs_censored > 0) os << " censored=" << jobs_censored;
  if (server_failures > 0 || task_kills > 0) {
    os << " failures=" << server_failures << " kills=" << task_kills
       << " goodput=" << format_double(goodput, 3)
       << " lost=" << format_double(work_lost_gpu_seconds, 0) << "gpu-s"
       << " recovery=" << format_double(mean_recovery_seconds, 0) << "s";
  }
  if (fits_cold + fits_warm > 0) {
    os << " fits=" << fits_cold << "c/" << fits_warm << "w"
       << " fitHits=" << prediction_cache_hits << " nmEvals=" << nm_objective_evals
       << " fitWall=" << format_double(fit_wall_ms, 0) << "ms";
  }
  if (link_busy_seconds > 0.0 || phase_offset_hits > 0) {
    os << " linkBusy=" << format_double(link_busy_seconds, 0) << "s"
       << " contention=" << format_double(contention_slowdown_seconds, 0) << "s"
       << " rephased=" << phase_offset_hits;
  }
  if (quarantines > 0 || task_retries > 0 || jobs_failed_permanent > 0) {
    os << " quarantines=" << quarantines << " retries=" << task_retries
       << " backoff=" << format_double(backoff_delay_seconds, 0) << "s"
       << " failedPerm=" << jobs_failed_permanent
       << " absorbed=" << crashes_absorbed
       << " avoided=" << format_double(wasted_work_avoided_gpu_seconds, 0) << "gpu-s";
  }
  return os.str();
}

bool deterministic_equal(const RunMetrics& a, const RunMetrics& b) {
  return a.scheduler == b.scheduler && a.job_count == b.job_count &&
         a.jobs_injected == b.jobs_injected &&
         a.jct_minutes == b.jct_minutes && a.makespan_hours == b.makespan_hours &&
         a.deadline_ratio == b.deadline_ratio && a.waiting_seconds == b.waiting_seconds &&
         a.average_accuracy == b.average_accuracy && a.accuracy_ratio == b.accuracy_ratio &&
         a.bandwidth_tb == b.bandwidth_tb && a.inter_rack_tb == b.inter_rack_tb &&
         a.overload_occurrences == b.overload_occurrences && a.migrations == b.migrations &&
         a.preemptions == b.preemptions && a.partial_releases == b.partial_releases &&
         a.watchdog_evictions == b.watchdog_evictions && a.iterations_run == b.iterations_run &&
         a.iterations_saved == b.iterations_saved &&
         a.urgent_deadline_ratio == b.urgent_deadline_ratio &&
         a.server_failures == b.server_failures && a.rack_outages == b.rack_outages &&
         a.task_kills == b.task_kills && a.crash_evictions == b.crash_evictions &&
         a.iterations_rolled_back == b.iterations_rolled_back &&
         a.work_lost_gpu_seconds == b.work_lost_gpu_seconds &&
         a.mean_recovery_seconds == b.mean_recovery_seconds && a.goodput == b.goodput &&
         a.quarantines == b.quarantines &&
         a.quarantine_valve_saves == b.quarantine_valve_saves &&
         a.task_retries == b.task_retries &&
         a.backoff_delay_seconds == b.backoff_delay_seconds &&
         a.jobs_failed_permanent == b.jobs_failed_permanent &&
         a.jobs_censored == b.jobs_censored &&
         a.crashes_absorbed == b.crashes_absorbed &&
         a.wasted_work_avoided_gpu_seconds == b.wasted_work_avoided_gpu_seconds &&
         a.events_processed == b.events_processed &&
         a.event_stream_hash == b.event_stream_hash &&
         a.sched_rounds == b.sched_rounds && a.candidates_scanned == b.candidates_scanned &&
         a.comm_cache_hits == b.comm_cache_hits && a.comm_cache_misses == b.comm_cache_misses &&
         a.load_index_rebuilds == b.load_index_rebuilds &&
         a.load_index_refreshes == b.load_index_refreshes &&
         a.servers_reindexed == b.servers_reindexed && a.noop_reindexes == b.noop_reindexes &&
         a.link_busy_seconds == b.link_busy_seconds &&
         a.contention_slowdown_seconds == b.contention_slowdown_seconds &&
         a.phase_offset_hits == b.phase_offset_hits &&
         a.fits_cold == b.fits_cold && a.fits_warm == b.fits_warm &&
         a.prediction_cache_hits == b.prediction_cache_hits &&
         a.nm_objective_evals == b.nm_objective_evals;
}

}  // namespace mlfs

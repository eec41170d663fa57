#include "common/metrics.h"

#include <cstdio>

namespace navpath {

Metrics Metrics::Delta(const Metrics& start) const {
  Metrics d;
  for (const auto field : kMetricsCounters) {
    d.*field = this->*field - start.*field;
  }
  d.elevator_depth_max = elevator_depth_max;  // high-water mark, not a count
  return d;
}

std::string Metrics::ToString() const {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "disk: reads=%llu (seq=%llu) writes=%llu seek_pages=%llu "
      "async=%llu (reordered=%llu)\n"
      "sched: merged=%llu elevator_batches=%llu depth_sum=%llu "
      "depth_max=%llu priority_jumps=%llu\n"
      "buffer: hits=%llu misses=%llu evictions=%llu swizzle=%llu "
      "unswizzle=%llu\n"
      "faults: injected=%llu retries=%llu corruptions_detected=%llu "
      "fallbacks=%llu\n"
      "nav: clusters=%llu intra=%llu inter=%llu tests=%llu\n"
      "algebra: instances=%llu full=%llu speculative=%llu r_probes=%llu "
      "s_probes=%llu fallbacks=%llu",
      static_cast<unsigned long long>(disk_reads),
      static_cast<unsigned long long>(disk_seq_reads),
      static_cast<unsigned long long>(disk_writes),
      static_cast<unsigned long long>(disk_seek_pages),
      static_cast<unsigned long long>(async_requests),
      static_cast<unsigned long long>(async_reorderings),
      static_cast<unsigned long long>(requests_merged),
      static_cast<unsigned long long>(elevator_batches),
      static_cast<unsigned long long>(elevator_depth_sum),
      static_cast<unsigned long long>(elevator_depth_max),
      static_cast<unsigned long long>(priority_jumps),
      static_cast<unsigned long long>(buffer_hits),
      static_cast<unsigned long long>(buffer_misses),
      static_cast<unsigned long long>(buffer_evictions),
      static_cast<unsigned long long>(swizzle_ops),
      static_cast<unsigned long long>(unswizzle_ops),
      static_cast<unsigned long long>(faults_injected),
      static_cast<unsigned long long>(fault_retries),
      static_cast<unsigned long long>(corruptions_detected),
      static_cast<unsigned long long>(fault_fallbacks),
      static_cast<unsigned long long>(clusters_visited),
      static_cast<unsigned long long>(intra_cluster_hops),
      static_cast<unsigned long long>(inter_cluster_hops),
      static_cast<unsigned long long>(node_tests),
      static_cast<unsigned long long>(instances_created),
      static_cast<unsigned long long>(instances_full),
      static_cast<unsigned long long>(speculative_instances),
      static_cast<unsigned long long>(r_set_probes),
      static_cast<unsigned long long>(s_set_probes),
      static_cast<unsigned long long>(fallback_activations));
  return buf;
}

}  // namespace navpath

#ifndef HTAPBENCH_LAYERS_H_
#define HTAPBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "clients.h"
#include "engine/database.h"

namespace htapbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Substrate readings at one instant: the metrics registry, the slow-query
/// ring position and the replica's zone-map block counters.
struct LayerSnapshot {
  olxp::obs::MetricsSnapshot metrics;
  uint64_t statements_recorded = 0;
  int64_t blocks_scanned = 0;
  int64_t blocks_skipped = 0;
};

LayerSnapshot TakeSnapshot(olxp::engine::Database& db);

/// Replicator gauges sampled every 10 ms during the window (the first
/// call, at the window's start, only sets the baseline).
class ReplSamples {
 public:
  void Sample(olxp::engine::Database& db);
  std::vector<int64_t> lag_us;  ///< only samples after records applied
  int64_t pending_max = 0;

 private:
  int64_t last_applied_ = -1;
};

/// Readings taken once at the end of the window.
struct EndOfWindow {
  int64_t mvcc_versions = 0;
  int64_t mvcc_index_entries = 0;
  int64_t column_bytes_encoded = 0;
  int64_t column_bytes_raw = 0;
  void Take(olxp::engine::Database& db);
};

struct SetupTimes {
  double setup_s = 0;    ///< process start to replica caught up
  double load_s = 0;     ///< process start to loader done
  double catchup_s = 0;  ///< WaitReplicaCaughtUp
};

/// Every per-layer metric but recovery.reopen_s, in a fixed order and with
/// a value for each (0 where the workload does not exercise the layer).
/// `statements` is the slow-query ring's content; `profile_keys` are the
/// "<suite>.<name>" keys of every profile of every suite.
std::vector<Metric> LayerMetrics(const std::vector<olxp::obs::SlowQueryEntry>&
                                     statements,
                                 const LayerSnapshot& start,
                                 const LayerSnapshot& end,
                                 const ReplSamples& repl,
                                 const EndOfWindow& eow,
                                 const ClientsResult& run,
                                 const SetupTimes& setup,
                                 const std::vector<std::string>& profile_keys);

}  // namespace htapbench

#endif  // HTAPBENCH_LAYERS_H_

#ifndef HTAPBENCH_CLIENTS_H_
#define HTAPBENCH_CLIENTS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "benchfw/workload.h"
#include "engine/database.h"

namespace htapbench {

using olxp::benchfw::AgentKind;
using olxp::benchfw::TxnProfile;

/// How one operation (one call of a TxnProfile body, retries included)
/// ended. A rule rollback is a refusal the suite's own rules require
/// (TPC-C's invalid-item NewOrder, SmallBank's overdraft refusals); it is
/// recognised by the exact status the suite body returns, so no status the
/// engine produces can count as one.
enum class Outcome { kCompleted, kRuleRollback, kFailed };

Outcome Classify(const olxp::Status& st);

/// One closed-loop client group: `clients` threads, each running the
/// weighted mix of `profiles` back to back.
struct ClientGroup {
  AgentKind kind = AgentKind::kOltp;
  int clients = 1;
  const std::vector<TxnProfile>* profiles = nullptr;
  std::string suite;  ///< prefix of the per-profile keys ("subench", ...)
};

struct ClientOptions {
  double measure_s = 10.0;
  uint64_t seed = 1;
  bool trace = false;  ///< sessions trace every statement
};

/// Callbacks the coordinating thread makes: at the start of the measured
/// window, every 10 ms inside it (the last one at its end), and once every
/// client has finished.
/// on_start runs while every client waits at the window's start barrier.
struct WindowProbe {
  std::function<void()> on_start;
  std::function<void()> on_sample;
  std::function<void()> on_end;
};

struct ClassStats {
  std::vector<int64_t> latency_ns;  ///< completed ops, rule rollbacks too
  uint64_t attempted = 0;
  uint64_t completed = 0;       ///< OK plus rule rollbacks
  uint64_t rule_rollbacks = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
};

/// One body execution as the traced run records it.
struct Span {
  int32_t profile = 0;
  int32_t client = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-operator totals over the analytical bodies of a traced run. Each
/// analytical body runs exactly one statement, so its Session::last_trace()
/// is the whole body's operator split.
struct OlapTraceTotals {
  int64_t queries = 0;
  int64_t total_us = 0;  ///< summed statement wall time
  int64_t lane_us = 0;   ///< summed statement wall time x lanes engaged
  int64_t morsels = 0;
  std::map<std::string, int64_t> op_us;  ///< by TraceOp::op
};

struct ClientsResult {
  std::map<AgentKind, ClassStats> classes;
  std::vector<std::string> profile_keys;  ///< "<suite>.<profile name>"
  std::vector<std::vector<int64_t>> profile_latency_ns;
  double window_s = 0;  ///< window start to the last counted op's end
  int64_t body_ns = 0;  ///< summed wall time of in-window bodies
  int64_t charged_us = 0;
  uint64_t charge_violations = 0;  ///< bodies shorter than their charge
  std::vector<Span> spans;         ///< traced runs only
  OlapTraceTotals olap;            ///< traced runs only
  std::string first_failure;

  uint64_t Attempted() const;
  uint64_t Completed() const;
  uint64_t Failed() const;
  uint64_t Retries() const;
};

/// Runs every group closed-loop against `db`: a 1 s warmup, then a window
/// of opts.measure_s seconds. The window opens once every client has finished
/// its warmup operation (probe.on_start runs with none in flight).
/// Operations that start inside the window are counted and finish even
/// when they end after it.
ClientsResult RunClients(olxp::engine::Database& db,
                        const std::vector<ClientGroup>& groups,
                        const ClientOptions& opts, const WindowProbe& probe);

}  // namespace htapbench

#endif  // HTAPBENCH_CLIENTS_H_

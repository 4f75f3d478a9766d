#include "workloads.h"

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <system_error>

#include "benchmarks/fibench/fibench.h"
#include "benchmarks/subench/subench.h"
#include "checks.h"
#include "common/clock.h"
#include "clients.h"
#include "layers.h"
#include "stats.h"

namespace htapbench {

namespace {

namespace fs = std::filesystem;
using olxp::benchfw::BenchmarkSuite;
using olxp::engine::Database;
using olxp::engine::EngineProfile;
using olxp::engine::Session;

/// Clears every simulated device and network cost, so the engine's own
/// work is all that is timed.
EngineProfile ZeroModel(EngineProfile p) {
  olxp::engine::LatencyModel& m = p.latency;
  m.row_seek_ns = m.row_scan_row_ns = m.row_analytic_scan_row_ns = 0;
  m.col_scan_row_ns = m.col_vector_row_ns = 0;
  m.col_join_build_row_ns = m.col_join_row_ns = 0;
  m.write_ns = m.commit_base_ns = m.statement_overhead_ns = 0;
  m.scan_contention = 0;
  p.txn_analytical_scan_penalty = 1.0;
  return p;
}

enum class Checks { kHtap, kFibench, kOlapParity, kModeled };

struct Workload {
  const char* name;
  bool fibench;  ///< suite: fibenchmark, else subenchmark
  int scale;     ///< warehouses, or thousands of customers
  int items;
  EngineProfile profile;
  std::vector<std::pair<AgentKind, int>> clients;
  Checks checks;
};

std::vector<Workload> Workloads() {
  EngineProfile htap = ZeroModel(EngineProfile::TiDbLike());
  htap.olap_row_fraction = 0;
  htap.replication_lag_micros = 0;
  htap.exec_threads = 1;
  htap.durability = olxp::storage::DurabilityMode::kGroup;

  EngineProfile olap = ZeroModel(EngineProfile::TiDbLike());
  olap.olap_row_fraction = 0;
  olap.replication_lag_micros = 0;
  olap.exec_threads = 4;

  return {
      {"subench-htap", false, 8, 10000, htap,
       {{AgentKind::kOltp, 3}, {AgentKind::kOlap, 1}}, Checks::kHtap},
      {"fibench-hybrid", true, 10, 0,
       ZeroModel(EngineProfile::MemSqlLike()), {{AgentKind::kHybrid, 4}},
       Checks::kFibench},
      {"subench-olap-4lane", false, 12, 10000, olap, {{AgentKind::kOlap, 1}},
       Checks::kOlapParity},
      {"subench-modeled", false, 4, 10000, EngineProfile::TiDbLike(),
       {{AgentKind::kOltp, 2}, {AgentKind::kHybrid, 2}}, Checks::kModeled},
  };
}

/// Per-profile keys of every profile some workload runs, in a fixed order.
std::vector<std::string> AllProfileKeys() {
  std::vector<std::string> keys;
  const BenchmarkSuite su = olxp::benchmarks::MakeSubenchmark();
  for (const auto* list : {&su.transactions, &su.queries, &su.hybrids}) {
    for (const TxnProfile& p : *list) keys.push_back("subench." + p.name);
  }
  for (const TxnProfile& p : olxp::benchmarks::MakeFibenchmark().hybrids) {
    keys.push_back("fibench." + p.name);
  }
  return keys;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

const char* ClassName(AgentKind k) {
  switch (k) {
    case AgentKind::kOltp:
      return "oltp";
    case AgentKind::kOlap:
      return "olap";
    case AgentKind::kHybrid:
      return "hybrid";
  }
  return "?";
}

void PrintMetric(const Metric& m) {
  std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

/// The result line: {"correct", "attempted", "failed", "metrics"}.
void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void WriteSpans(const std::string& dir, const std::string& workload,
                const ClientsResult& run) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::ofstream f(fs::path(dir) / (workload + ".spans.csv"));
  if (!f) return;
  int64_t t0 = std::numeric_limits<int64_t>::max();
  for (const Span& s : run.spans) t0 = std::min(t0, s.start_ns);
  f << "profile,client,start_ns,end_ns\n";
  for (const Span& s : run.spans) {
    f << run.profile_keys[static_cast<size_t>(s.profile)] << ',' << s.client
      << ',' << s.start_ns - t0 << ',' << s.end_ns - t0 << '\n';
  }
}

/// Removes a WAL directory when the run ends, however it ends.
struct DirGuard {
  std::string path;
  ~DirGuard() {
    std::error_code ec;
    if (!path.empty()) fs::remove_all(path, ec);
  }
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : Workloads()) names.push_back(w.name);
  return names;
}

int RunWorkload(const RunArgs& args) {
  const std::vector<Workload> all = Workloads();
  const Workload* w = nullptr;
  for (const Workload& cand : all) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  EngineProfile profile = w->profile;
  DirGuard wal_guard;
  if (profile.durability != olxp::storage::DurabilityMode::kOff) {
    std::error_code ec;
    wal_guard.path = (fs::path(args.work_dir) / "wal").string();
    fs::remove_all(wal_guard.path, ec);
    fs::create_directories(wal_guard.path, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s\n", wal_guard.path.c_str());
      return 2;
    }
    profile.wal_dir = wal_guard.path;
  }
  if (args.trace) {
    // Every statement enters the ring (wall >= 1 us) and none is evicted.
    profile.slow_query_threshold_us = 1;
    profile.slow_query_log_capacity = std::numeric_limits<size_t>::max();
  }

  olxp::benchfw::LoadParams params;
  params.scale = w->scale;
  params.items = w->items;
  params.seed = args.seed;
  params.load_threads = 4;
  const BenchmarkSuite suite = w->fibench
                                   ? olxp::benchmarks::MakeFibenchmark(params)
                                   : olxp::benchmarks::MakeSubenchmark(params);

  // ---- set-up: schema, load, replica catch-up ----
  SetupTimes setup;
  auto db = std::make_unique<Database>(profile);
  auto admin = db->CreateSession();
  admin->set_charging_enabled(false);
  olxp::Status st = suite.create_schema(*admin);
  if (st.ok()) st = suite.load(*db, suite.load_params);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const int64_t loaded_ns = olxp::NowNanos();
  db->WaitReplicaCaughtUp();
  const int64_t caught_up_ns = olxp::NowNanos();
  setup.setup_s = Seconds(args.process_start_ns, caught_up_ns);
  setup.load_s = Seconds(args.process_start_ns, loaded_ns);
  setup.catchup_s = Seconds(loaded_ns, caught_up_ns);

  // ---- the measured window ----
  std::vector<ClientGroup> groups;
  for (const auto& [kind, n] : w->clients) {
    groups.push_back(ClientGroup{kind, n, &suite.ProfilesFor(kind),
                                 w->fibench ? "fibench" : "subench"});
  }
  ClientOptions opts;
  opts.measure_s = args.seconds;
  opts.seed = args.seed;
  opts.trace = args.trace;
  LayerSnapshot snap_start, snap_end;
  ReplSamples repl;
  EndOfWindow eow;
  double cpu_start = 0, cpu_end = 0, rss_mib = 0;
  WindowProbe probe;
  probe.on_start = [&] {
    snap_start = TakeSnapshot(*db);
    repl.Sample(*db);
    cpu_start = CpuSeconds();
  };
  probe.on_sample = [&] { repl.Sample(*db); };
  probe.on_end = [&] {
    cpu_end = CpuSeconds();
    rss_mib = PeakRssMib();
    snap_end = TakeSnapshot(*db);
    eow.Take(*db);
  };
  const ClientsResult run = RunClients(*db, groups, opts, probe);

  // ---- output checks on the quiesced database ----
  if (run.Failed() > 0) {
    std::fprintf(stderr, "%llu failed operations; first: %s\n",
                 static_cast<unsigned long long>(run.Failed()),
                 run.first_failure.c_str());
  }
  CheckReport report;
  std::vector<Metric> layers;
  if (args.trace) {
    const std::vector<olxp::obs::SlowQueryEntry> statements =
        db->slow_query_log().Entries();
    report.Expect(statements.size() == db->slow_query_log().total_recorded(),
                  "trace.ring", "the slow-query ring evicted entries");
    layers = LayerMetrics(statements, snap_start, snap_end, repl, eow,
                          run, setup, AllProfileKeys());
  }
  switch (w->checks) {
    case Checks::kHtap:
    case Checks::kModeled:
      CheckTpcc(*admin, &report);
      break;
    case Checks::kFibench:
      CheckFibench(*admin, w->scale * 1000, &report);
      break;
    case Checks::kOlapParity:
      CheckOlapParity(*db, *admin, suite, &report);
      break;
  }
  if (w->checks == Checks::kModeled) {
    report.Expect(run.charged_us > 0, "charges.present",
                  "the latency model charged nothing");
    report.Expect(run.charge_violations == 0, "charges.wall_ge_charge",
                  std::to_string(run.charge_violations) +
                      " bodies returned before their simulated charge");
  } else {
    report.Expect(run.charged_us == 0, "charges.zeroed",
                  "the zeroed model charged " + std::to_string(run.charged_us) +
                      " us");
  }
  double recovery_s = 0;  // reopen on the WAL
  if (w->checks == Checks::kHtap) {
    db->WaitReplicaCaughtUp();
    const std::vector<TableFingerprint> fp = FingerprintSubench(*admin, &report);
    CheckReplica(*admin, fp, &report);
    admin.reset();
    db.reset();  // close: the WAL flushes its tail
    const int64_t t0 = olxp::NowNanos();
    db = std::make_unique<Database>(profile);
    recovery_s = Seconds(t0, olxp::NowNanos());
    CheckRecovered(*db, fp, &report);
  }
  if (args.trace) layers.push_back({"recovery.reopen_s", recovery_s, "s"});
  admin.reset();
  db.reset();

  // ---- report ----
  std::printf("workload %s seed %llu seconds %g trace %d\n", w->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::vector<int64_t> all_ns;
  for (const auto& [kind, c] : run.classes) {
    all_ns.insert(all_ns.end(), c.latency_ns.begin(), c.latency_ns.end());
    const std::string cls = ClassName(kind);
    std::printf(
        "ops %-6s attempted %llu completed %llu rule_rollbacks %llu failed "
        "%llu retries %llu\n",
        cls.c_str(), static_cast<unsigned long long>(c.attempted),
        static_cast<unsigned long long>(c.completed),
        static_cast<unsigned long long>(c.rule_rollbacks),
        static_cast<unsigned long long>(c.failed),
        static_cast<unsigned long long>(c.retries));
    if (args.trace) continue;
    PrintMetric({cls + (kind == AgentKind::kOlap ? "_qps" : "_tps"),
                 static_cast<double>(c.completed) / run.window_s,
                 kind == AgentKind::kOlap ? "queries/s" : "txn/s"});
    PrintMetric({cls + "_p50_ms", Quantile(c.latency_ns, 0.5) / 1e6, "ms"});
    if (c.latency_ns.size() >= 1000) {
      PrintMetric({cls + "_p99_ms", Quantile(c.latency_ns, 0.99) / 1e6, "ms"});
    }
  }
  if (!args.trace && w->checks == Checks::kHtap) {
    PrintMetric({"recovery_s", recovery_s, "s"});
  }
  std::printf("checks passed %d failed %zu\n", report.passed(),
              report.failures().size());
  for (const std::string& f : report.failures()) {
    std::printf("check FAILED %s\n", f.c_str());
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    WriteSpans(args.spans_dir, w->name, run);
    metrics = layers;
  } else {
    double sum_ns = 0;
    for (int64_t ns : all_ns) sum_ns += static_cast<double>(ns);
    const double completed = static_cast<double>(run.Completed());
    metrics = {
        {"setup_s", setup.setup_s, "s"},
        {"ops_per_s", completed / run.window_s, "1/s"},
        {"mean_ms", all_ns.empty() ? 0 : sum_ns / 1e6 / all_ns.size(), "ms"},
        {"p99_ms", Quantile(all_ns, 0.99) / 1e6, "ms"},
        {"cpu_us_per_op",
         completed > 0 ? (cpu_end - cpu_start) * 1e6 / completed : 0, "us"},
        {"peak_rss_mib", rss_mib, "MiB"},
    };
  }
  for (const Metric& m : metrics) PrintMetric(m);
  PrintJson(report.ok(), run.Attempted(), run.Failed(), metrics);
  std::fflush(stdout);
  return 0;
}

}  // namespace htapbench

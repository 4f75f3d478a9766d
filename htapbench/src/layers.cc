#include "layers.h"

#include <algorithm>

#include "stats.h"

namespace htapbench {

namespace {

int64_t Counter(const olxp::obs::MetricsSnapshot& m, const std::string& name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

/// Change of a counter over the window.
double Delta(const LayerSnapshot& a, const LayerSnapshot& b,
             const std::string& name) {
  return static_cast<double>(Counter(b.metrics, name) -
                             Counter(a.metrics, name));
}

/// Sum of a histogram's samples recorded during the window (exact: count
/// and mean are kept exactly, so count * mean is the running sum).
double HistogramSumDelta(const LayerSnapshot& a, const LayerSnapshot& b,
                         const std::string& name) {
  auto sum = [&](const LayerSnapshot& s) {
    auto it = s.metrics.histograms.find(name);
    return it == s.metrics.histograms.end()
               ? 0.0
               : static_cast<double>(it->second.count) * it->second.mean;
  };
  return sum(b) - sum(a);
}

double HistogramCountDelta(const LayerSnapshot& a, const LayerSnapshot& b,
                           const std::string& name) {
  auto count = [&](const LayerSnapshot& s) {
    auto it = s.metrics.histograms.find(name);
    return it == s.metrics.histograms.end() ? 0.0
                                            : static_cast<double>(it->second.count);
  };
  return count(b) - count(a);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

LayerSnapshot TakeSnapshot(olxp::engine::Database& db) {
  LayerSnapshot s;
  s.metrics = db.metrics().Snapshot();
  s.statements_recorded = db.slow_query_log().total_recorded();
  for (int id : db.row_store().TableIds()) {
    const olxp::storage::ColumnTable* t = db.column_store().table(id);
    if (t == nullptr) continue;
    s.blocks_scanned += t->blocks_scanned();
    s.blocks_skipped += t->blocks_skipped();
  }
  return s;
}

void ReplSamples::Sample(olxp::engine::Database& db) {
  olxp::obs::MetricsRegistry& m = db.metrics();
  // The lag gauge is set only when a batch applies; a sample taken while
  // nothing applied would repeat a stale value.
  const int64_t applied = m.GetCounter("repl.records_applied")->Value();
  if (last_applied_ >= 0 && applied != last_applied_) {
    lag_us.push_back(m.GetGauge("repl.apply_lag_us")->Value());
  }
  last_applied_ = applied;
  pending_max =
      std::max(pending_max, m.GetGauge("repl.pending_records")->Value());
}

void EndOfWindow::Take(olxp::engine::Database& db) {
  for (int id : db.row_store().TableIds()) {
    const olxp::storage::MvccTable* t = db.row_store().table(id);
    mvcc_versions += static_cast<int64_t>(t->TotalVersionCount());
    mvcc_index_entries += static_cast<int64_t>(t->IndexEntryCount());
    const olxp::storage::ColumnTable* c = db.column_store().table(id);
    if (c == nullptr) continue;
    column_bytes_encoded += static_cast<int64_t>(c->EncodedBytes());
    column_bytes_raw += static_cast<int64_t>(c->RawBytes());
  }
}

std::vector<Metric> LayerMetrics(const std::vector<olxp::obs::SlowQueryEntry>&
                                     statements,
                                 const LayerSnapshot& start,
                                 const LayerSnapshot& end,
                                 const ReplSamples& repl,
                                 const EndOfWindow& eow,
                                 const ClientsResult& run,
                                 const SetupTimes& setup,
                                 const std::vector<std::string>& profile_keys) {
  std::vector<Metric> out;
  auto add = [&](const std::string& name, double value, const char* unit) {
    out.push_back(Metric{name, value, unit});
  };
  const double ops = static_cast<double>(run.Attempted());
  const double secs = run.window_s;

  // benchmarks: per-profile body latency.
  for (const std::string& key : profile_keys) {
    double p50 = 0;
    for (size_t p = 0; p < run.profile_keys.size(); ++p) {
      if (run.profile_keys[p] == key) {
        p50 = Quantile(run.profile_latency_ns[p], 0.5) / 1e3;
      }
    }
    add("profile." + key + ".p50_us", p50, "us");
  }

  // engine: statements of the window, from the slow-query ring (threshold
  // 1 us in traced runs, sized to keep every entry).
  // Entries carry whole microseconds, so a median of them would read the
  // same integer run after run; the means keep the resolution.
  double stmt_us_sum = 0, interp_us_sum = 0, stmts = 0, interp_stmts = 0;
  for (const olxp::obs::SlowQueryEntry& e : statements) {
    if (e.seq <= start.statements_recorded || e.seq > end.statements_recorded) {
      continue;
    }
    stmts++;
    stmt_us_sum += static_cast<double>(e.wall_us);
    if (e.route == "row/interpreter") {
      interp_stmts++;
      interp_us_sum += static_cast<double>(e.wall_us);
    }
  }
  add("engine.statements_per_op",
      Ratio(Delta(start, end, "session.statements"), ops), "1/op");
  add("engine.statement_mean_us", Ratio(stmt_us_sum, stmts), "us");
  add("engine.route.row", Ratio(Delta(start, end, "router.route.row"), ops),
      "1/op");
  add("engine.route.column_vectorized",
      Ratio(Delta(start, end, "router.route.column_vectorized"), ops), "1/op");
  add("engine.route.column_interpreter",
      Ratio(Delta(start, end, "router.route.column_interpreter"), ops),
      "1/op");
  add("engine.outside_execute_us_per_op",
      Ratio(static_cast<double>(run.body_ns) / 1e3 - stmt_us_sum, ops), "us");
  add("engine.charged_ms_per_op",
      Ratio(static_cast<double>(run.charged_us) / 1e3, ops), "ms");

  // txn + lock manager.
  add("lock.acquires_per_op", Ratio(Delta(start, end, "lock.acquires"), ops),
      "1/op");
  add("lock.waits_per_op", Ratio(Delta(start, end, "lock.waits"), ops), "1/op");
  add("lock.wait_us_per_op",
      Ratio(Delta(start, end, "lock.wait_ns") / 1e3, ops), "us");
  add("lock.timeouts", Delta(start, end, "lock.timeouts"), "count");
  add("txn.retries_per_op", Ratio(static_cast<double>(run.Retries()), ops),
      "1/op");

  // WAL.
  const double fsyncs = Delta(start, end, "wal.fsyncs");
  const double appends = Delta(start, end, "wal.appends");
  add("wal.fsyncs_per_s", Ratio(fsyncs, secs), "1/s");
  add("wal.fsync_mean_us",
      Ratio(HistogramSumDelta(start, end, "wal.fsync_us"),
            HistogramCountDelta(start, end, "wal.fsync_us")),
      "us");
  add("wal.records_per_fsync", Ratio(appends, fsyncs), "count");
  add("wal.bytes_per_txn", Ratio(Delta(start, end, "wal.bytes_written"), appends),
      "B");

  // Replicator.
  add("repl.records_applied_per_s",
      Ratio(Delta(start, end, "repl.records_applied"), secs), "1/s");
  double lag_us = 0;
  for (int64_t v : repl.lag_us) lag_us += static_cast<double>(v);
  add("repl.apply_lag_ms",
      Ratio(lag_us / 1e3, static_cast<double>(repl.lag_us.size())), "ms");
  add("repl.pending_records_max", static_cast<double>(repl.pending_max),
      "count");

  // Column store.
  add("column.bytes_encoded", static_cast<double>(eow.column_bytes_encoded), "B");
  add("column.bytes_raw", static_cast<double>(eow.column_bytes_raw), "B");
  const double scanned =
      static_cast<double>(end.blocks_scanned - start.blocks_scanned);
  const double skipped =
      static_cast<double>(end.blocks_skipped - start.blocks_skipped);
  add("column.blocks_skipped_share", Ratio(skipped, scanned + skipped), "share");

  // MVCC + vacuum.
  add("mvcc.versions", static_cast<double>(eow.mvcc_versions), "count");
  add("mvcc.index_entries", static_cast<double>(eow.mvcc_index_entries),
      "count");
  add("vacuum.pass_ms_per_s",
      Ratio(HistogramSumDelta(start, end, "vacuum.pass_us") / 1e3, secs),
      "ms/s");
  add("vacuum.versions_reclaimed_per_s",
      Ratio(Delta(start, end, "vacuum.versions_reclaimed"), secs), "1/s");
  add("setup.load_s", setup.load_s, "s");
  add("setup.catchup_s", setup.catchup_s, "s");

  // exec: per-operator split of the analytical bodies. The sink operator
  // (aggregate, or project without aggregates) is "agg"; the interpreter's
  // fused join pipeline counts as "probe". Parallel operators report work
  // summed over lanes, so with lanes > 1 the unattributed rest can be
  // negative.
  const OlapTraceTotals& o = run.olap;
  const double queries = static_cast<double>(o.queries);
  auto op_us = [&](std::initializer_list<const char*> names) {
    double us = 0;
    for (const char* n : names) {
      auto it = o.op_us.find(n);
      if (it != o.op_us.end()) us += static_cast<double>(it->second);
    }
    return us;
  };
  double ops_us = 0;
  for (const auto& [name, us] : o.op_us) ops_us += static_cast<double>(us);
  add("exec.scan_us_per_query", Ratio(op_us({"scan"}), queries), "us");
  add("exec.filter_us_per_query", Ratio(op_us({"filter"}), queries), "us");
  add("exec.join_build_us_per_query", Ratio(op_us({"join-build"}), queries),
      "us");
  add("exec.probe_us_per_query", Ratio(op_us({"probe", "join"}), queries),
      "us");
  add("exec.agg_us_per_query", Ratio(op_us({"aggregate", "project"}), queries),
      "us");
  add("exec.order_us_per_query", Ratio(op_us({"order"}), queries), "us");
  add("exec.unattributed_us_per_query",
      Ratio(static_cast<double>(o.total_us) - ops_us, queries), "us");
  add("exec.morsels_per_query", Ratio(static_cast<double>(o.morsels), queries),
      "count");
  add("exec.lane_busy_share", Ratio(ops_us, static_cast<double>(o.lane_us)),
      "share");

  // sql interpreter.
  add("sql.interp_statement_mean_us", Ratio(interp_us_sum, interp_stmts),
      "us");
  add("traced.ops_per_s", Ratio(static_cast<double>(run.Completed()), secs),
      "1/s");
  return out;
}

}  // namespace htapbench

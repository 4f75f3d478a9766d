// Self-test of the output checks: on a small loaded subenchmark database,
// break one fact at a time and assert that the matching check reports it
// (and that the checks pass before and after).

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "benchmarks/common.h"
#include "benchmarks/subench/subench.h"
#include "checks.h"
#include "common/clock.h"
#include "workloads.h"

namespace htapbench {

namespace {

namespace fs = std::filesystem;
using olxp::Value;
using olxp::engine::Database;
using olxp::engine::EngineProfile;

int g_failures = 0;

void Expect(bool ok, const char* what, const CheckReport& report) {
  std::printf("selftest %-6s %s\n", ok ? "ok" : "FAILED", what);
  if (ok) return;
  g_failures++;
  for (const std::string& f : report.failures()) {
    std::printf("  reported: %s\n", f.c_str());
  }
}

void Exec(olxp::engine::Session& s, const std::string& sql,
          std::initializer_list<Value> params = {}) {
  const olxp::Status st = olxp::benchmarks::Exec(s, sql, params);
  if (!st.ok()) {
    std::printf("selftest statement failed: %s: %s\n", sql.c_str(),
                st.ToString().c_str());
    g_failures++;
  }
}

/// Halves the largest WAL segment, dropping the commits in its second half.
bool TruncateLargestSegment(const std::string& dir) {
  std::error_code ec;
  fs::path largest;
  uintmax_t size = 0;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".seg" && e.file_size(ec) > size) {
      size = e.file_size(ec);
      largest = e.path();
    }
  }
  if (largest.empty()) return false;
  fs::resize_file(largest, size / 2, ec);
  return !ec;
}

}  // namespace

int RunSelftest(const std::string& work_dir) {
  const std::string wal = (fs::path(work_dir) / "selftest-wal").string();
  std::error_code ec;
  fs::remove_all(wal, ec);
  fs::create_directories(wal, ec);

  EngineProfile profile = EngineProfile::TiDbLike();
  profile.olap_row_fraction = 0;
  profile.replication_lag_micros = 0;
  profile.durability = olxp::storage::DurabilityMode::kGroup;
  profile.wal_dir = wal;

  olxp::benchfw::LoadParams params;
  params.scale = 2;
  params.items = 1000;
  params.seed = 7;
  params.load_threads = 2;
  const auto suite = olxp::benchmarks::MakeSubenchmark(params);

  std::vector<TableFingerprint> before;  // taken just before close
  {
    Database db(profile);
    auto s = db.CreateSession();
    s->set_charging_enabled(false);
    if (!suite.create_schema(*s).ok() || !suite.load(db, params).ok()) {
      std::printf("selftest FAILED to load\n");
      return 1;
    }
    db.WaitReplicaCaughtUp();

    {
      CheckReport r;
      CheckTpcc(*s, &r);
      CheckReplica(*s, FingerprintSubench(*s, &r), &r);
      Expect(r.ok() && r.passed() > 0, "a freshly loaded database passes", r);
    }

    // W_YTD = sum(D_YTD): bump one district's d_ytd through SQL.
    const char* kDistrict = " WHERE d_w_id = 1 AND d_id = 1";
    Exec(*s, std::string("UPDATE district SET d_ytd = d_ytd + 1") + kDistrict);
    {
      CheckReport r;
      CheckTpcc(*s, &r);
      Expect(r.Failed("tpcc.w_ytd") && !r.Failed("tpcc.ol_cnt"),
             "bumped d_ytd is reported by tpcc.w_ytd", r);
    }
    Exec(*s, std::string("UPDATE district SET d_ytd = d_ytd - 1") + kDistrict);

    // O_OL_CNT lines per order: delete one order line, then put it back.
    const char* kLine =
        " WHERE ol_w_id = 1 AND ol_d_id = 1 AND ol_o_id = 1 AND ol_number = 1";
    auto line = s->Execute(std::string("SELECT * FROM order_line") + kLine);
    Exec(*s, std::string("DELETE FROM order_line") + kLine);
    {
      CheckReport r;
      CheckTpcc(*s, &r);
      Expect(r.Failed("tpcc.ol_cnt") && !r.Failed("tpcc.w_ytd"),
             "a deleted order line is reported by tpcc.ol_cnt", r);
    }
    if (line.ok() && line->rows.size() == 1) {
      const olxp::Row& row = line->rows[0];
      auto rs = s->Execute(
          "INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
          std::span<const Value>(row));
      if (!rs.ok()) g_failures++;
    }
    {
      CheckReport r;
      CheckTpcc(*s, &r);
      Expect(r.ok(), "the repaired database passes again", r);
    }

    // Replica = row store: stop the replicator, then write.
    db.replicator().Stop();
    Exec(*s, "INSERT INTO history VALUES (1, 1, 1, 1, 1, ?, 5.0, 'selftest')",
         {Value::Timestamp(olxp::NowMicros())});
    {
      CheckReport r;
      CheckReplica(*s, FingerprintSubench(*s, &r), &r);
      Expect(r.Failed("replica.history") && !r.Failed("replica.orders"),
             "a lagging replica is reported by replica.history", r);
    }
    db.WaitReplicaCaughtUp();  // applies the backlog without the thread
    {
      CheckReport r;
      CheckReplica(*s, FingerprintSubench(*s, &r), &r);
      Expect(r.ok(), "the caught-up replica passes again", r);
    }
    CheckReport r;
    before = FingerprintSubench(*s, &r);
  }

  // Recovery: a clean reopen passes; a truncated WAL is reported.
  {
    Database db(profile);
    CheckReport r;
    CheckRecovered(db, before, &r);
    Expect(r.ok(), "a clean reopen passes the recovery checks", r);
  }
  if (!TruncateLargestSegment(wal)) {
    std::printf("selftest FAILED to truncate a WAL segment\n");
    g_failures++;
  }
  {
    Database db(profile);
    CheckReport r;
    CheckRecovered(db, before, &r);
    Expect(r.Failed("recovery"), "a truncated WAL is reported by recovery.*",
           r);
    for (const std::string& f : r.failures()) {
      std::printf("  reported: %s\n", f.c_str());
    }
  }
  fs::remove_all(wal, ec);
  std::printf("selftest %s: %d failure(s)\n", g_failures ? "FAILED" : "passed",
              g_failures);
  return g_failures ? 1 : 0;
}

}  // namespace htapbench

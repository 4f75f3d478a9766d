#ifndef HTAPBENCH_CHECKS_H_
#define HTAPBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "benchfw/workload.h"
#include "engine/database.h"
#include "engine/session.h"

namespace htapbench {

/// Outcome of a set of output checks. Each failure is "<check>: <detail>";
/// check names are dotted ("tpcc.w_ytd", "replica.orders", ...).
class CheckReport {
 public:
  void Expect(bool ok, const std::string& check, const std::string& detail);
  /// Records an error that prevented a check from running as a failure.
  void ExpectOk(const olxp::Status& st, const std::string& check);

  bool ok() const { return failures_.empty(); }
  int passed() const { return passed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  /// True when some failure was recorded under `check` or a name below it.
  bool Failed(const std::string& check) const;

 private:
  int passed_ = 0;
  std::vector<std::string> failures_;
};

/// Count, one numeric column's sum, and an order-independent hash of every
/// row of one table, all computed here from rows read off the row store.
struct TableFingerprint {
  std::string table;
  std::string sum_column;
  int64_t rows = 0;
  double sum = 0;
  double sum_abs = 0;
  uint64_t hash = 0;
};

/// The TPC-C consistency conditions over a subenchmark database:
/// W_YTD = sum(D_YTD) per warehouse, D_NEXT_O_ID - 1 = max(O_ID) per
/// district, NEW_ORDER contiguous per district, O_OL_CNT lines per order.
void CheckTpcc(olxp::engine::Session& s, CheckReport* report);

/// Fingerprints of every subenchmark table.
std::vector<TableFingerprint> FingerprintSubench(olxp::engine::Session& s,
                                                 CheckReport* report);

/// Per table, COUNT(*) and SUM(<column>) from a statement the engine routes
/// to the columnar replica equal the row-store fingerprint. The caller
/// brings the replica up to date first (or deliberately does not).
void CheckReplica(olxp::engine::Session& s,
                  const std::vector<TableFingerprint>& row_side,
                  CheckReport* report);

/// After a reopen: recovery succeeded and every table fingerprint equals
/// the one taken before close.
void CheckRecovered(olxp::engine::Database& reopened,
                    const std::vector<TableFingerprint>& before,
                    CheckReport* report);

/// fibenchmark: N rows per table; the engine's SUM/AVG/MIN/MAX of both
/// balances and its saving-join-checking total equal sums over N point
/// reads; no savings balance is negative.
void CheckFibench(olxp::engine::Session& s, int customers,
                  CheckReport* report);

/// Analytical parity on a quiesced subenchmark database: each Q1-Q9 result
/// on the vectorized (possibly parallel) path equals the interpreter's,
/// and Q1 and Q5 equal a recomputation from ORDER_LINE rows. Also checks
/// that the suite's query bodies still run the SQL checked here.
void CheckOlapParity(olxp::engine::Database& db, olxp::engine::Session& s,
                     const olxp::benchfw::BenchmarkSuite& suite,
                     CheckReport* report);

}  // namespace htapbench

#endif  // HTAPBENCH_CHECKS_H_

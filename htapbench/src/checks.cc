#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "stats.h"

namespace htapbench {

namespace {

using olxp::Row;
using olxp::Status;
using olxp::StatusOr;
using olxp::Value;
using olxp::engine::Session;

/// Every subenchmark table with the numeric column its fingerprint sums.
const std::pair<const char*, const char*> kSubenchTables[] = {
    {"warehouse", "w_ytd"},   {"district", "d_ytd"},
    {"customer", "c_balance"}, {"history", "h_amount"},
    {"new_order", "no_o_id"}, {"orders", "o_ol_cnt"},
    {"order_line", "ol_amount"}, {"item", "i_price"},
    {"stock", "s_quantity"},
};

/// Reads every row a SELECT returns inside one explicit transaction, which
/// pins it to the row store.
StatusOr<olxp::sql::ResultSet> ReadRowStore(Session& s, const std::string& sql) {
  OLXP_RETURN_NOT_OK(s.Begin());
  auto rs = s.Execute(sql);
  if (!rs.ok()) {
    (void)s.Rollback();
    return rs.status();
  }
  OLXP_RETURN_NOT_OK(s.Commit());
  return rs;
}

bool CellsMatch(const Value& a, const Value& b) {
  if (a.is_numeric() && b.is_numeric() &&
      (a.type() == olxp::ValueType::kDouble ||
       b.type() == olxp::ValueType::kDouble)) {
    return NearlyEqual(a.AsDouble(), b.AsDouble(),
                       std::max(std::fabs(a.AsDouble()),
                                std::fabs(b.AsDouble())));
  }
  return a.Compare(b) == 0;
}

bool RowLess(const Row& a, const Row& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const Value& x, const Value& y) { return x.Compare(y) < 0; });
}

/// Compares two result sets as sorted multisets of rows (cells within a
/// relative 1e-9 where doubles are involved). Returns "" when equal.
std::string CompareMultisets(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) {
    return std::to_string(a.size()) + " rows vs " + std::to_string(b.size());
  }
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return "row width differs";
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!CellsMatch(a[r][c], b[r][c])) {
        return "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": " + a[r][c].ToString() + " vs " + b[r][c].ToString();
      }
    }
  }
  return "";
}

uint64_t RowHash(const Row& row) {
  uint64_t h = 1469598103934665603ULL;
  for (const Value& v : row) {
    h ^= static_cast<uint64_t>(v.Hash());
    h *= 1099511628211ULL;
  }
  // Final avalanche so the order-independent sum below mixes well.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

using DistrictKey = std::pair<int64_t, int64_t>;

}  // namespace

void CheckReport::Expect(bool ok, const std::string& check,
                         const std::string& detail) {
  if (ok) {
    passed_++;
  } else {
    failures_.push_back(check + ": " + detail);
  }
}

void CheckReport::ExpectOk(const Status& st, const std::string& check) {
  Expect(st.ok(), check, st.ToString());
}

bool CheckReport::Failed(const std::string& check) const {
  for (const std::string& f : failures_) {
    if (f.compare(0, check.size(), check) == 0 &&
        (f.size() == check.size() || f[check.size()] == ':' ||
         f[check.size()] == '.')) {
      return true;
    }
  }
  return false;
}

void CheckTpcc(Session& s, CheckReport* report) {
  auto wh = ReadRowStore(s, "SELECT w_id, w_ytd FROM warehouse");
  auto dist = ReadRowStore(s, "SELECT d_w_id, d_id, d_ytd, d_next_o_id FROM district");
  auto orders = ReadRowStore(s, "SELECT o_w_id, o_d_id, o_id, o_ol_cnt FROM orders");
  auto no = ReadRowStore(s, "SELECT no_w_id, no_d_id, no_o_id FROM new_order");
  auto ol = ReadRowStore(s, "SELECT ol_w_id, ol_d_id, ol_o_id FROM order_line");
  for (const auto* rs : {&wh, &dist, &orders, &no, &ol}) {
    if (!rs->ok()) {
      report->ExpectOk(rs->status(), "tpcc.read");
      return;
    }
  }

  // W_YTD = sum(D_YTD) per warehouse.
  std::map<int64_t, std::pair<double, double>> d_ytd;  // sum, sum of |x|
  for (const Row& r : dist->rows) {
    auto& acc = d_ytd[r[0].AsInt()];
    acc.first += r[2].AsDouble();
    acc.second += std::fabs(r[2].AsDouble());
  }
  for (const Row& r : wh->rows) {
    const int64_t w = r[0].AsInt();
    const double w_ytd = r[1].AsDouble();
    const auto& acc = d_ytd[w];
    report->Expect(NearlyEqual(w_ytd, acc.first, std::max(acc.second, w_ytd)),
                   "tpcc.w_ytd",
                   "warehouse " + std::to_string(w) + " w_ytd " +
                       r[1].ToString() + " != sum(d_ytd) " +
                       std::to_string(acc.first));
  }

  // D_NEXT_O_ID - 1 = max(O_ID); O_OL_CNT lines per order.
  std::map<DistrictKey, int64_t> max_o_id;
  std::map<std::tuple<int64_t, int64_t, int64_t>, int64_t> ol_cnt;
  for (const Row& r : orders->rows) {
    const DistrictKey k{r[0].AsInt(), r[1].AsInt()};
    max_o_id[k] = std::max(max_o_id[k], r[2].AsInt());
    ol_cnt[{k.first, k.second, r[2].AsInt()}] = r[3].AsInt();
  }
  for (const Row& r : dist->rows) {
    const DistrictKey k{r[0].AsInt(), r[1].AsInt()};
    const int64_t next = r[3].AsInt();
    report->Expect(next - 1 == max_o_id[k], "tpcc.next_o_id",
                   "district (" + std::to_string(k.first) + "," +
                       std::to_string(k.second) + ") d_next_o_id " +
                       std::to_string(next) + " but max(o_id) " +
                       std::to_string(max_o_id[k]));
  }

  // NEW_ORDER contiguous per district.
  struct Range {
    int64_t lo = INT64_MAX, hi = INT64_MIN, n = 0;
  };
  std::map<DistrictKey, Range> ranges;
  for (const Row& r : no->rows) {
    Range& g = ranges[{r[0].AsInt(), r[1].AsInt()}];
    g.lo = std::min(g.lo, r[2].AsInt());
    g.hi = std::max(g.hi, r[2].AsInt());
    g.n++;
  }
  for (const auto& [k, g] : ranges) {
    report->Expect(g.hi - g.lo + 1 == g.n, "tpcc.new_order",
                   "district (" + std::to_string(k.first) + "," +
                       std::to_string(k.second) + ") holds " +
                       std::to_string(g.n) + " new orders over [" +
                       std::to_string(g.lo) + "," + std::to_string(g.hi) + "]");
  }

  // Every order has exactly O_OL_CNT lines (and no line lacks its order).
  std::map<std::tuple<int64_t, int64_t, int64_t>, int64_t> lines;
  for (const Row& r : ol->rows) {
    lines[{r[0].AsInt(), r[1].AsInt(), r[2].AsInt()}]++;
  }
  uint64_t bad = 0;
  std::string example;
  for (const auto& [k, cnt] : ol_cnt) {
    auto it = lines.find(k);
    const int64_t have = it == lines.end() ? 0 : it->second;
    if (have != cnt) {
      if (bad++ == 0) {
        example = "order (" + std::to_string(std::get<0>(k)) + "," +
                  std::to_string(std::get<1>(k)) + "," +
                  std::to_string(std::get<2>(k)) + ") has " +
                  std::to_string(have) + " lines, o_ol_cnt " +
                  std::to_string(cnt);
      }
    }
  }
  for (const auto& [k, cnt] : lines) {
    if (ol_cnt.find(k) == ol_cnt.end() && bad++ == 0) {
      example = "order lines without an order";
    }
  }
  report->Expect(bad == 0, "tpcc.ol_cnt",
                 std::to_string(bad) + " orders off; e.g. " + example);
}

std::vector<TableFingerprint> FingerprintSubench(Session& s,
                                                 CheckReport* report) {
  std::vector<TableFingerprint> out;
  for (const auto& [table, column] : kSubenchTables) {
    TableFingerprint fp;
    fp.table = table;
    fp.sum_column = column;
    auto rs = ReadRowStore(s, std::string("SELECT * FROM ") + table);
    if (!rs.ok()) {
      report->ExpectOk(rs.status(), std::string("fingerprint.") + table);
      continue;
    }
    size_t col = rs->column_names.size();
    for (size_t c = 0; c < rs->column_names.size(); ++c) {
      if (rs->column_names[c] == column) col = c;
    }
    report->Expect(col < rs->column_names.size(),
                   std::string("fingerprint.") + table,
                   std::string("no column ") + column);
    if (col == rs->column_names.size()) continue;
    for (const Row& r : rs->rows) {
      fp.rows++;
      if (!r[col].is_null()) {
        fp.sum += r[col].AsDouble();
        fp.sum_abs += std::fabs(r[col].AsDouble());
      }
      fp.hash += RowHash(r);
    }
    out.push_back(std::move(fp));
  }
  return out;
}

void CheckReplica(Session& s, const std::vector<TableFingerprint>& row_side,
                  CheckReport* report) {
  for (const TableFingerprint& fp : row_side) {
    const std::string check = "replica." + fp.table;
    auto rs = s.Execute("SELECT COUNT(*), SUM(" + fp.sum_column + ") FROM " +
                          fp.table);
    if (!rs.ok() || rs->rows.size() != 1) {
      report->Expect(false, check, rs.ok() ? "no row" : rs.status().ToString());
      continue;
    }
    report->Expect(s.last_route() == olxp::engine::RoutedStore::kColumnStore,
                   check, "statement was not served by the replica");
    const int64_t count = rs->rows[0][0].AsInt();
    const double sum =
        rs->rows[0][1].is_null() ? 0.0 : rs->rows[0][1].AsDouble();
    report->Expect(count == fp.rows && NearlyEqual(sum, fp.sum, fp.sum_abs),
                   check,
                   "replica count/sum " + std::to_string(count) + "/" +
                       std::to_string(sum) + " vs row store " +
                       std::to_string(fp.rows) + "/" + std::to_string(fp.sum));
  }
}

void CheckRecovered(olxp::engine::Database& reopened,
                    const std::vector<TableFingerprint>& before,
                    CheckReport* report) {
  report->ExpectOk(reopened.recovery_status(), "recovery.status");
  auto session = reopened.CreateSession();
  session->set_charging_enabled(false);
  CheckReport scratch;
  std::vector<TableFingerprint> after = FingerprintSubench(*session, &scratch);
  for (const std::string& f : scratch.failures()) {
    report->Expect(false, "recovery.read", f);
  }
  std::map<std::string, const TableFingerprint*> by_name;
  for (const TableFingerprint& fp : after) by_name[fp.table] = &fp;
  for (const TableFingerprint& b : before) {
    auto it = by_name.find(b.table);
    const TableFingerprint* a = it == by_name.end() ? nullptr : it->second;
    report->Expect(a != nullptr && a->rows == b.rows && a->hash == b.hash &&
                       NearlyEqual(a->sum, b.sum, b.sum_abs),
                   "recovery." + b.table,
                   a == nullptr ? "table missing"
                                : "rows " + std::to_string(a->rows) +
                                      " vs " + std::to_string(b.rows) +
                                      " before close, or checksum differs");
  }
  CheckTpcc(*session, report);
}

void CheckFibench(Session& s, int customers, CheckReport* report) {
  for (const char* table : {"account", "saving", "checking"}) {
    auto rs = ReadRowStore(s, std::string("SELECT custid FROM ") + table);
    if (!rs.ok()) {
      report->ExpectOk(rs.status(), std::string("fibench.rows.") + table);
      continue;
    }
    std::set<int64_t> ids;
    for (const Row& r : rs->rows) ids.insert(r[0].AsInt());
    const bool dense = !ids.empty() && *ids.begin() == 1 &&
                       *ids.rbegin() == customers;
    report->Expect(rs->rows.size() == static_cast<size_t>(customers) &&
                       ids.size() == rs->rows.size() && dense,
                   std::string("fibench.rows.") + table,
                   std::to_string(rs->rows.size()) + " rows, " +
                       std::to_string(ids.size()) + " distinct ids, want " +
                       std::to_string(customers));
  }

  // Sums over N point reads per balance table.
  struct Agg {
    double sum = 0, abs = 0, min = INFINITY, max = -INFINITY;
  };
  std::vector<double> sv(static_cast<size_t>(customers) + 1, 0.0);
  Agg agg[2];
  double total = 0, total_abs = 0;
  int64_t negative_savings = 0;
  const char* tables[2] = {"saving", "checking"};
  for (int t = 0; t < 2; ++t) {
    const std::string sql =
        std::string("SELECT bal FROM ") + tables[t] + " WHERE custid = ?";
    for (int c = 1; c <= customers; ++c) {
      auto rs = s.Execute(sql, {Value::Int(c)});
      if (!rs.ok() || rs->rows.size() != 1) {
        report->Expect(false, std::string("fibench.point_read.") + tables[t],
                       "custid " + std::to_string(c) + " unreadable");
        return;
      }
      const double b = rs->rows[0][0].AsDouble();
      agg[t].sum += b;
      agg[t].abs += std::fabs(b);
      agg[t].min = std::min(agg[t].min, b);
      agg[t].max = std::max(agg[t].max, b);
      if (t == 0) {
        sv[static_cast<size_t>(c)] = b;
        if (b < 0) negative_savings++;
      } else {
        total += sv[static_cast<size_t>(c)] + b;
        total_abs += std::fabs(sv[static_cast<size_t>(c)] + b);
      }
    }
  }
  report->Expect(negative_savings == 0, "fibench.saving_nonnegative",
                 std::to_string(negative_savings) + " negative savings");

  for (int t = 0; t < 2; ++t) {
    const std::string check = std::string("fibench.aggregates.") + tables[t];
    auto rs = s.Execute(std::string("SELECT SUM(bal), AVG(bal), MIN(bal), "
                                  "MAX(bal) FROM ") + tables[t]);
    if (!rs.ok() || rs->rows.size() != 1) {
      report->Expect(false, check, rs.ok() ? "no row" : rs.status().ToString());
      continue;
    }
    const Row& r = rs->rows[0];
    const double n = static_cast<double>(customers);
    report->Expect(NearlyEqual(r[0].AsDouble(), agg[t].sum, agg[t].abs) &&
                       NearlyEqual(r[1].AsDouble(), agg[t].sum / n,
                                   agg[t].abs / n) &&
                       r[2].AsDouble() == agg[t].min &&
                       r[3].AsDouble() == agg[t].max,
                   check,
                   "engine " + r[0].ToString() + "/" + r[1].ToString() + "/" +
                       r[2].ToString() + "/" + r[3].ToString() +
                       " vs point reads " + std::to_string(agg[t].sum) + "/" +
                       std::to_string(agg[t].sum / n) + "/" +
                       std::to_string(agg[t].min) + "/" +
                       std::to_string(agg[t].max));
  }
  auto join = s.Execute("SELECT SUM(sv.bal + ck.bal) FROM saving sv JOIN "
                      "checking ck ON ck.custid = sv.custid");
  report->Expect(join.ok() && join->rows.size() == 1 &&
                     NearlyEqual(join->rows[0][0].AsDouble(), total, total_abs),
                 "fibench.aggregates.join",
                 join.ok() && !join->rows.empty()
                     ? join->rows[0][0].ToString() + " vs " +
                           std::to_string(total)
                     : "join failed");
}

namespace {

/// The subenchmark's analytical queries as checked here. `key_col` >= 0
/// marks an ORDER BY ... LIMIT query whose ties leave the row set open:
/// only that sort-key column is compared.
struct QuerySpec {
  const char* name;
  const char* sql;
  std::vector<Value> params;
  int key_col = -1;
};

std::vector<QuerySpec> SubenchQueries() {
  return {
      {"Q1",
       "SELECT ol_number, SUM(ol_quantity), SUM(ol_amount), "
       "AVG(ol_quantity), AVG(ol_amount), COUNT(*) FROM order_line "
       "GROUP BY ol_number ORDER BY ol_number",
       {}},
      {"Q2",
       "SELECT c_credit, COUNT(*), AVG(c_balance), MIN(c_balance), "
       "MAX(c_balance) FROM customer GROUP BY c_credit ORDER BY c_credit",
       {}},
      {"Q3",
       "SELECT h_w_id, COUNT(*), SUM(h_amount), AVG(h_amount) FROM history "
       "GROUP BY h_w_id ORDER BY h_w_id",
       {}},
      {"Q4",
       "SELECT w.w_id, MAX(w.w_ytd), SUM(d.d_ytd) FROM warehouse w "
       "JOIN district d ON d.d_w_id = w.w_id GROUP BY w.w_id "
       "ORDER BY w.w_id",
       {}},
      {"Q5",
       "SELECT ol_i_id, SUM(ol_amount) AS rev FROM order_line "
       "GROUP BY ol_i_id ORDER BY rev DESC LIMIT 10",
       {},
       1},
      {"Q6",
       "SELECT s_w_id, COUNT(*) FROM stock WHERE s_quantity < ? "
       "GROUP BY s_w_id ORDER BY s_w_id",
       {Value::Int(30)}},
      {"Q7",
       "SELECT c.c_credit, COUNT(*), AVG(o.o_ol_cnt) FROM orders o "
       "JOIN customer c ON c.c_w_id = o.o_w_id AND c.c_d_id = o.o_d_id "
       "AND c.c_id = o.o_c_id GROUP BY c.c_credit",
       {}},
      {"Q8",
       "SELECT o_w_id, COUNT(*) FROM orders WHERE o_carrier_id IS NULL "
       "GROUP BY o_w_id ORDER BY o_w_id",
       {}},
      {"Q9",
       "SELECT CASE WHEN i_price < 50 THEN 0 ELSE 1 END AS band, "
       "COUNT(*), AVG(i_price) FROM item GROUP BY "
       "CASE WHEN i_price < 50 THEN 0 ELSE 1 END ORDER BY band",
       {}},
  };
}

std::vector<Row> Column(const std::vector<Row>& rows, int col) {
  std::vector<Row> out;
  for (const Row& r : rows) out.push_back({r[static_cast<size_t>(col)]});
  return out;
}

}  // namespace

void CheckOlapParity(olxp::engine::Database& db, Session& s,
                     const olxp::benchfw::BenchmarkSuite& suite,
                     CheckReport* report) {
  const std::vector<QuerySpec> specs = SubenchQueries();

  // The suite's bodies must still run the SQL checked below.
  const int level = s.trace_level();
  s.set_trace_level(1);
  for (const QuerySpec& q : specs) {
    auto it = std::find_if(suite.queries.begin(), suite.queries.end(),
                           [&](const olxp::benchfw::TxnProfile& p) { return p.name == q.name; });
    olxp::Rng rng(1);
    const bool ran = it != suite.queries.end() && it->body(s, rng).ok();
    report->Expect(ran && s.last_trace().sql == q.sql,
                   std::string("olap.sql.") + q.name,
                   "the suite's body no longer runs this query text");
  }
  s.set_trace_level(level);

  std::map<std::string, std::vector<Row>> vectorized;
  for (const QuerySpec& q : specs) {
    const std::string check = std::string("olap.parity.") + q.name;
    db.set_vectorized_execution(true);
    auto v = s.Execute(q.sql, std::span<const Value>(q.params));
    const bool v_col = s.last_route() == olxp::engine::RoutedStore::kColumnStore;
    db.set_vectorized_execution(false);
    auto i = s.Execute(q.sql, std::span<const Value>(q.params));
    db.set_vectorized_execution(true);
    if (!v.ok() || !i.ok()) {
      report->Expect(false, check,
                     (!v.ok() ? v.status() : i.status()).ToString());
      continue;
    }
    report->Expect(v_col, check, "not served by the replica");
    const std::string diff =
        q.key_col >= 0 ? CompareMultisets(Column(v->rows, q.key_col),
                                          Column(i->rows, q.key_col))
                       : CompareMultisets(v->rows, i->rows);
    report->Expect(diff.empty(), check, "vectorized vs interpreter: " + diff);
    vectorized[q.name] = v->rows;
  }

  // Q1 and Q5 recomputed from ORDER_LINE rows.
  auto ol = ReadRowStore(
      s, "SELECT ol_number, ol_i_id, ol_quantity, ol_amount FROM order_line");
  if (!ol.ok()) {
    report->ExpectOk(ol.status(), "olap.recompute");
    return;
  }
  struct Line {
    int64_t qty = 0, n = 0;
    double amount = 0, abs = 0;
  };
  std::map<int64_t, Line> by_number;
  std::map<int64_t, std::pair<double, double>> by_item;  // sum, |sum|
  for (const Row& r : ol->rows) {
    Line& l = by_number[r[0].AsInt()];
    l.qty += r[2].AsInt();
    l.amount += r[3].AsDouble();
    l.abs += std::fabs(r[3].AsDouble());
    l.n++;
    auto& it = by_item[r[1].AsInt()];
    it.first += r[3].AsDouble();
    it.second += std::fabs(r[3].AsDouble());
  }
  std::vector<Row> q1;
  for (const auto& [num, l] : by_number) {
    const double n = static_cast<double>(l.n);
    q1.push_back({Value::Int(num), Value::Int(l.qty), Value::Double(l.amount),
                  Value::Double(static_cast<double>(l.qty) / n),
                  Value::Double(l.amount / n), Value::Int(l.n)});
  }
  const std::string q1_diff = CompareMultisets(vectorized["Q1"], q1);
  report->Expect(q1_diff.empty(), "olap.recompute.Q1", q1_diff);

  std::vector<double> revs;
  for (const auto& [item, rev] : by_item) revs.push_back(rev.first);
  std::sort(revs.rbegin(), revs.rend());
  revs.resize(std::min<size_t>(revs.size(), 10));
  std::vector<Row> q5;
  for (double r : revs) q5.push_back({Value::Double(r)});
  const std::string q5_diff =
      CompareMultisets(Column(vectorized["Q5"], 1), q5);
  report->Expect(q5_diff.empty(), "olap.recompute.Q5", q5_diff);
}

}  // namespace htapbench

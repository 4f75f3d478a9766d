#include "clients.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "engine/session.h"

namespace htapbench {

namespace {

constexpr double kWarmupS = 1.0;
/// Conflict/LockTimeout retries before an operation counts as failed.
constexpr uint64_t kMaxRetries = 1000;

/// Statuses the suites return for their own rule rollbacks.
constexpr const char* kRuleRollbackMessages[] = {
    "invalid item (1% forced rollback)",  // subench NewOrder / X1
    "would overdraw savings",             // fibench TransactSavings
    "insufficient funds",                 // fibench SendPayment
    "insufficient cheque balance",        // fibench X6
};

struct ClientLocal {
  std::map<AgentKind, ClassStats> classes;
  std::vector<std::vector<int64_t>> profile_latency_ns;
  int64_t body_ns = 0;
  int64_t charged_us = 0;
  uint64_t charge_violations = 0;
  int64_t last_end_ns = 0;
  std::vector<Span> spans;
  OlapTraceTotals olap;
  std::string first_failure;
};

void AddTrace(const olxp::obs::QueryTrace& t, OlapTraceTotals* out) {
  out->queries++;
  out->total_us += t.total_us;
  out->lane_us += t.total_us * std::max(1, t.lanes);
  out->morsels += t.morsels;
  for (const olxp::obs::TraceOp& op : t.ops) out->op_us[op.op] += op.wall_us;
}

}  // namespace

Outcome Classify(const olxp::Status& st) {
  if (st.ok()) return Outcome::kCompleted;
  if (st.code() == olxp::StatusCode::kAborted) {
    for (const char* msg : kRuleRollbackMessages) {
      if (st.message() == msg) return Outcome::kRuleRollback;
    }
  }
  return Outcome::kFailed;
}

uint64_t ClientsResult::Attempted() const {
  uint64_t n = 0;
  for (const auto& [k, c] : classes) n += c.attempted;
  return n;
}
uint64_t ClientsResult::Completed() const {
  uint64_t n = 0;
  for (const auto& [k, c] : classes) n += c.completed;
  return n;
}
uint64_t ClientsResult::Failed() const {
  uint64_t n = 0;
  for (const auto& [k, c] : classes) n += c.failed;
  return n;
}
uint64_t ClientsResult::Retries() const {
  uint64_t n = 0;
  for (const auto& [k, c] : classes) n += c.retries;
  return n;
}

ClientsResult RunClients(olxp::engine::Database& db,
                        const std::vector<ClientGroup>& groups,
                        const ClientOptions& opts, const WindowProbe& probe) {
  ClientsResult result;
  // Global profile ids: one per (group suite, profile name).
  std::vector<int> first_profile_id;
  for (const ClientGroup& g : groups) {
    first_profile_id.push_back(static_cast<int>(result.profile_keys.size()));
    for (const TxnProfile& p : *g.profiles) {
      result.profile_keys.push_back(g.suite + "." + p.name);
    }
    result.classes[g.kind];
  }
  const size_t n_profiles = result.profile_keys.size();

  const int64_t start_ns = olxp::NowNanos() + 2'000'000;
  const int64_t measure_ns =
      start_ns + static_cast<int64_t>(kWarmupS * 1e9);
  const int64_t window_ns = static_cast<int64_t>(opts.measure_s * 1e9);

  int total_clients = 0;
  for (const ClientGroup& g : groups) total_clients += g.clients;
  std::vector<ClientLocal> locals(static_cast<size_t>(total_clients));

  // Window start barrier: once warmup is over, each client finishes the
  // operation in flight and waits; the coordinator then takes its start
  // readings with no operation in flight, so every counter delta of the
  // window belongs to exactly the operations counted in it.
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  bool released = false;
  int64_t release_ns = 0;  // guarded by mu until released
  auto arrive_and_wait = [&]() {
    std::unique_lock<std::mutex> lk(mu);
    arrived++;
    cv.notify_all();
    cv.wait(lk, [&] { return released; });
    return release_ns;
  };

  auto client = [&](const ClientGroup& g, int first_id, int client_id) {
    ClientLocal& local = locals[static_cast<size_t>(client_id)];
    local.profile_latency_ns.resize(n_profiles);
    ClassStats& cs = local.classes[g.kind];
    auto session = db.CreateSession();
    if (opts.trace) session->set_trace_level(1);
    olxp::Rng rng(opts.seed * 1000003ULL + static_cast<uint64_t>(client_id));
    // Analytical clients run their queries in rounds, each round a seeded
    // permutation of the whole list (as TPC-H query streams do), so every
    // run executes the same mix; the others pick by weight.
    std::vector<int> round;
    auto next_profile = [&]() -> int {
      if (g.kind != AgentKind::kOlap) {
        return olxp::benchfw::PickWeighted(*g.profiles, rng);
      }
      if (round.empty()) {
        for (int i = static_cast<int>(g.profiles->size()); i > 0; --i) {
          round.push_back(i - 1);
        }
        for (size_t i = round.size() - 1; i > 0; --i) {
          std::swap(round[i], round[static_cast<size_t>(rng.Uniform(
                                  int64_t{0}, static_cast<int64_t>(i)))]);
        }
      }
      const int idx = round.back();
      round.pop_back();
      return idx;
    };
    while (olxp::NowNanos() < start_ns) std::this_thread::yield();
    bool measuring = false;
    int64_t end_ns = 0;
    while (true) {
      int64_t t0 = olxp::NowNanos();
      if (!measuring && t0 >= measure_ns) {
        end_ns = arrive_and_wait() + window_ns;
        measuring = true;
        t0 = olxp::NowNanos();
      }
      if (measuring && t0 >= end_ns) break;
      const int idx = next_profile();
      const TxnProfile& profile = (*g.profiles)[static_cast<size_t>(idx)];
      const int64_t charged0 = session->charged_micros();
      olxp::Status st = profile.body(*session, rng);
      uint64_t retries = 0;
      while (!st.ok() && st.IsRetryable() && retries < kMaxRetries) {
        ++retries;
        st = profile.body(*session, rng);
      }
      const int64_t t1 = olxp::NowNanos();
      if (!measuring) continue;  // warmup

      const int64_t charge_us = session->charged_micros() - charged0;
      const int pid = first_id + idx;
      cs.attempted++;
      cs.retries += retries;
      local.body_ns += t1 - t0;
      local.charged_us += charge_us;
      if (t1 - t0 < charge_us * 1000) local.charge_violations++;
      local.last_end_ns = std::max(local.last_end_ns, t1);
      const Outcome out = Classify(st);
      if (out == Outcome::kFailed) {
        cs.failed++;
        if (local.first_failure.empty()) {
          local.first_failure = profile.name + ": " + st.ToString();
        }
      } else {
        cs.completed++;
        if (out == Outcome::kRuleRollback) cs.rule_rollbacks++;
        cs.latency_ns.push_back(t1 - t0);
        local.profile_latency_ns[static_cast<size_t>(pid)].push_back(t1 - t0);
      }
      if (opts.trace) {
        local.spans.push_back(Span{pid, client_id, t0, t1});
        if (g.kind == AgentKind::kOlap && st.ok()) {
          AddTrace(session->last_trace(), &local.olap);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  int client_id = 0;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    for (int c = 0; c < groups[gi].clients; ++c) {
      threads.emplace_back(client, std::cref(groups[gi]),
                           first_profile_id[gi], client_id++);
    }
  }

  // Coordinator: window start, 10 ms samples, window end.
  auto sleep_until = [](int64_t t) {
    const int64_t now = olxp::NowNanos();
    if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  };
  int64_t begin_ns = 0;
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return arrived == total_clients; });
    probe.on_start();
    begin_ns = release_ns = olxp::NowNanos();
    released = true;
  }
  cv.notify_all();
  for (int64_t t = begin_ns + 10'000'000; t <= begin_ns + window_ns;
       t += 10'000'000) {
    sleep_until(t);
    probe.on_sample();
  }
  for (std::thread& t : threads) t.join();
  probe.on_end();

  result.profile_latency_ns.resize(n_profiles);
  int64_t last_end = begin_ns + window_ns;
  for (ClientLocal& l : locals) {
    for (auto& [kind, c] : l.classes) {
      ClassStats& dst = result.classes[kind];
      dst.latency_ns.insert(dst.latency_ns.end(), c.latency_ns.begin(),
                            c.latency_ns.end());
      dst.attempted += c.attempted;
      dst.completed += c.completed;
      dst.rule_rollbacks += c.rule_rollbacks;
      dst.failed += c.failed;
      dst.retries += c.retries;
    }
    for (size_t p = 0; p < n_profiles; ++p) {
      auto& dst = result.profile_latency_ns[p];
      dst.insert(dst.end(), l.profile_latency_ns[p].begin(),
                 l.profile_latency_ns[p].end());
    }
    result.body_ns += l.body_ns;
    result.charged_us += l.charged_us;
    result.charge_violations += l.charge_violations;
    last_end = std::max(last_end, l.last_end_ns);
    result.spans.insert(result.spans.end(), l.spans.begin(), l.spans.end());
    result.olap.queries += l.olap.queries;
    result.olap.total_us += l.olap.total_us;
    result.olap.lane_us += l.olap.lane_us;
    result.olap.morsels += l.olap.morsels;
    for (const auto& [op, us] : l.olap.op_us) result.olap.op_us[op] += us;
    if (result.first_failure.empty()) result.first_failure = l.first_failure;
  }
  result.window_s = static_cast<double>(last_end - begin_ns) / 1e9;
  return result;
}

}  // namespace htapbench

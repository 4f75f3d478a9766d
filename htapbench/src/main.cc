// Entry point of the end-to-end benchmark. Normally started by run.py:
//
//   htapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --spans-dir <dir>
//   htapbench --selftest --work-dir <dir>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/clock.h"
#include "workloads.h"

namespace {

// Taken during static initialisation, before main: set-up time counts from
// the process's start.
const int64_t kProcessStartNs = olxp::NowNanos();

int Usage() {
  std::fprintf(stderr,
               "usage: htapbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> --spans-dir <dir>\n"
               "       htapbench --selftest --work-dir <dir>\nworkloads:");
  for (const std::string& w : htapbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  htapbench::RunArgs args;
  args.process_start_ns = kProcessStartNs;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans-dir") {
      args.spans_dir = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (args.work_dir.empty()) return Usage();
  if (selftest) return htapbench::RunSelftest(args.work_dir);
  if (args.workload.empty() || args.seconds <= 0) return Usage();
  return htapbench::RunWorkload(args);
}

#ifndef HTAPBENCH_WORKLOADS_H_
#define HTAPBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace htapbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< scratch space for WAL directories
  std::string spans_dir;  ///< where traced runs write their spans
  int64_t process_start_ns = 0;
};

/// Names of the workloads RunWorkload accepts.
std::vector<std::string> WorkloadNames();

/// Sets up, runs, checks and reports one workload. Prints the human-readable
/// report and, as the last stdout line, the JSON result. Returns the exit
/// code (0 also when a check failed: "correct" reports that).
int RunWorkload(const RunArgs& args);

/// Breaks one fact at a time on a small database and asserts that the
/// matching output check reports it. Returns the exit code.
int RunSelftest(const std::string& work_dir);

}  // namespace htapbench

#endif  // HTAPBENCH_WORKLOADS_H_

// The repository benchmark driver. perfbench/run.py builds and runs it:
//
//   ibfs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke] [--corrupt-expected] [--trace-out <path>]
//
// It prints progress lines and then one "RESULT {...}" line with the
// stamps, the outcome, and every metric; run.py turns that into the final
// result line. Exits 1 when any answer was wrong.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: ibfs_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--corrupt-expected] "
               "[--trace-out <path>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (flag == "--corrupt-expected") {
      args.corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("flag without a value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed is not a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 600)) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  Report report;
  if (args.workload == "offline-lj") {
    RunOfflineLj(args, &report);
  } else if (args.workload == "partitioned-lj-p4") {
    RunPartitionedLjP4(args, &report);
  } else if (args.workload == "serve-pk") {
    RunServePk(args, &report);
  } else if (args.workload == "fleet-hot-pk") {
    RunFleetHotPk(args, &report);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  report.Print(args);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

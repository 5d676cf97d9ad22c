// The benchmark's workloads. Each sets up its inputs from --seed, measures
// for --seconds, checks every answer, and fills the report: end-to-end
// metrics always, per-layer metrics when traced.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

void RunOfflineLj(const Args& args, Report* report);
void RunPartitionedLjP4(const Args& args, Report* report);
void RunServePk(const Args& args, Report* report);
void RunFleetHotPk(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

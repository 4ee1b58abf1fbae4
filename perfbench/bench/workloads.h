/**
 * @file
 * The benchmark's workloads. Each fills `r` with its end-to-end
 * metrics (untraced run) or its per-layer metrics (traced run) and
 * counts every correctness gate in r.attempted / r.failed.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void runPaperEval(const Options& opt, Result& r);
void runLinuxScaleBuild(const Options& opt, Result& r);
void runServeMixed(const Options& opt, Result& r);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_

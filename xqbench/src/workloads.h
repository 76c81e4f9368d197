// The workloads. Each returns a finished RunResult: end-to-end metrics
// when untraced, per-layer metrics when traced.
#ifndef XQBENCH_WORKLOADS_H_
#define XQBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"

namespace xqbench {

/// True for the workloads that run one row of the paper's Table 3
/// (xmark_xqjoin, xmark_nljoin, xmark_nooptim, xmark_noalgebra) or its
/// Table 5 (clio), in-process on one thread.
bool IsPaperRow(const std::string& workload);
RunResult RunPaperRow(const Options& o, Ledger* ledger, Tracer* tracer);

/// fn:collection predicate scans over a generated corpus through a
/// DocumentStore with a snapshot directory: cold parse, cold snapshot, warm.
RunResult RunCollectionScan(const Options& o, Ledger* ledger, Tracer* tracer);

/// Rounds of a smoke run: more than one, so that the traced run's
/// consistency check compares warm calls with warm calls.
constexpr int kSmokeRounds = 3;

/// True while another round should start: always before the first one,
/// then until the measuring window has passed (a smoke run stops after
/// kSmokeRounds).
bool AnotherRound(const Options& o, int64_t window_start_ns, int rounds_done);

/// setup_s: cold set-ups of the run's workload and seed, each in a fresh
/// `xqbench --setup-only` process and timed from its spawn to the end of
/// its set-up, spread evenly over the measuring window and summarised by
/// kItemQuantile like every item. One cold shot per process moved with the
/// host's slow phases (README.md, "Noise"); a second set-up inside the
/// same process would be a warm one. Untraced runs only.
class ColdSetups {
 public:
  ColdSetups(const Options& o, int64_t window_start_ns);
  /// Between rounds: takes a sample when the next one is due.
  void MaybeSample(RunResult* res);
  /// After the window: tops up to the planned count; setup_s in seconds.
  double Finish(RunResult* res);

 private:
  void Sample(RunResult* res);

  const Options& o_;
  int64_t window_start_ns_;
  int planned_;
  std::vector<double> samples_s_;
};

/// Records the end-to-end metrics every workload shares.
void CommonMetrics(const Ledger& ledger, double setup_s, double peak_rss_mb,
                   RunResult* res);

}  // namespace xqbench

#endif  // XQBENCH_WORKLOADS_H_

// Shared pieces of the xqbench driver: clock, estimators, the span tracer,
// the per-item sample ledger and the metric sink.
//
// Every workload is a fixed list of operations (a "round") run round-robin
// for the whole measuring window, so a slow phase of the host lands on
// every item alike. Each item is then summarised by a low quantile of its
// samples (kItemQuantile), not by its median: on a shared host the fast
// tail is what repeats from run to run (see README.md, "Noise").
#ifndef XQBENCH_COMMON_H_
#define XQBENCH_COMMON_H_

#include <sched.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xqbench {

/// The per-item estimator: the 10th percentile of an item's samples.
constexpr double kItemQuantile = 0.10;

int64_t NowNs();

/// The q-quantile (0 <= q <= 1) of `v` with linear interpolation between
/// closest ranks. Returns 0 for an empty vector.
double Quantile(std::vector<double> v, double q);

/// Geometric mean of positive values; 0 for an empty vector.
double GeoMean(const std::vector<double>& v);

/// Peak resident set size (VmHWM) of this process in MiB, read from /proc;
/// 0 when unavailable.
double PeakRssMb();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;      // tiny inputs, a few rounds: the self-test path
  std::string fault;       // "", "expected" or "http-body": negative tests
  std::string httpd;       // path of the xqc_httpd binary
  std::string work_dir;    // scratch space inside the checkout
  int nproc = 1;           // CPUs this process may run on
  int64_t start_ns = 0;    // start of main, for the own set-up figure
  bool setup_only = false; // a cold set-up sample: set up, report, exit
};

// ---- tracing ----------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;       // index into Tracer::spans, -1 for a root
  int64_t request;  // the operation the span belongs to
};

/// In-memory span recorder, single-threaded; written out when the run
/// ends. Disabled (the untraced run) it records nothing.
class Tracer {
 public:
  bool enabled = false;
  int64_t request = 0;
  std::vector<Span> spans;

  int Open(const char* name);
  void Close(int id);
  /// Adds an already-measured interval as a child of the open span.
  void Add(const char* name, int64_t start_ns, int64_t end_ns);
  /// Sums span durations (us) by name for spans of `request`.
  std::map<std::string, double> TotalsFor(int64_t request) const;
  bool Write(const std::string& path) const;

 private:
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name)
      : t_(t), id_(t != nullptr && t->enabled ? t->Open(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) t_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// ---- per-item samples -------------------------------------------------------

struct ItemSeries {
  std::string name;
  bool probe = false;  // outside the round's mix: a layer probe or a side op
  std::vector<double> wall_us;        // one sample per operation
  std::vector<double> prepare_us;     // Engine::Prepare inside the op, if any
  std::map<std::string, std::vector<double>> layer_us;  // traced: by span
  std::map<std::string, double> counts;  // counters of the latest op
};

class Ledger {
 public:
  int Item(const std::string& name, bool probe = false);
  ItemSeries& at(int i) { return items_[static_cast<size_t>(i)]; }
  const std::vector<ItemSeries>& items() const { return items_; }
  /// Records one operation; with a tracer, also folds in its spans.
  void Record(int item, double wall_us, const Tracer* tracer);

  /// Sum over non-probe items of each item's kItemQuantile wall time (us).
  double RoundUs() const;
  double GeoMeanUs() const;
  double PrepareUs() const;
  /// Sum over items of the kItemQuantile of a layer's per-op span total;
  /// main-mix items first, probe items only when the mix has none.
  double LayerUs(const std::string& span) const;
  double Count(const std::string& key) const;

 private:
  std::vector<ItemSeries> items_;
  std::map<std::string, int> index_;
};

// ---- results ----------------------------------------------------------------

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few, for stderr
  std::map<std::string, double> metrics;
  std::map<std::string, double> summary;  // README figures, not metrics
  int64_t setup_end_ns = 0;  // --setup-only: NowNs() when set-up ended

  void Fail(const std::string& what);
};

std::string JsonEscape(const std::string& s);

bool ReadFile(const std::string& path, std::string* out);
bool WriteFile(const std::string& path, const std::string& data);
bool MakeDirs(const std::string& path);
void RemoveTree(const std::string& path);

/// Pins the calling thread to one allowed CPU for a round: the next allowed
/// CPU every kCpuSlotNs of the window, so caches stay warm between
/// switches. The mask is restored at the end of the round. For
/// single-threaded workloads: a lone thread stays on one vCPU, and on a
/// shared host one vCPU can run slow for a whole run (pinned runs of
/// xmark_xqjoin read 74 ms on one CPU and 43-45 ms on the others). Rotated,
/// every item gets samples on every CPU and its low quantile keeps the
/// fast ones.
class RoundCpu {
 public:
  static constexpr int64_t kCpuSlotNs = 500'000'000;
  explicit RoundCpu(int64_t window_start_ns);
  ~RoundCpu();
  RoundCpu(const RoundCpu&) = delete;
  RoundCpu& operator=(const RoundCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Call after the benchmark itself frees parsed documents, before the
/// next timed operation. Freeing a tree releases one heap chunk per node;
/// glibc bills sorting those chunks (~13 ms after 16 x 256 KB documents)
/// to the next allocation that misses its small-chunk caches, so without
/// this the stall lands at a varying point inside the following operation.
void SettleHeap();

}  // namespace xqbench

#endif  // XQBENCH_COMMON_H_

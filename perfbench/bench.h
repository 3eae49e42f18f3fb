// Shared pieces of the serving-stack benchmark driver (see README.md):
// run options, the per-run report, latency distributions and the
// measurement helpers every workload uses.
#ifndef ANC_PERFBENCH_BENCH_H_
#define ANC_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <istream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/stats.h"
#include "util/sync.h"

namespace anc::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunOptions {
  std::string workload;
  /// Seeds the activation stream and the reader request sequence (the
  /// graph is fixed per workload).
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Attach a trace sink for the measured window and fold its spans into
  /// a per-layer breakdown.
  bool trace = false;
  /// Self-check scale: tiny graphs and streams, every correctness check.
  bool tiny = false;
  /// PyramidParams::num_threads for the index (the repair-thread
  /// reference figure in README.md); 1 is the library default.
  uint32_t repair_threads = 1;
  /// Scratch directory for store files and the trace (created, emptied).
  std::string work_dir;
};

/// Weighted sample set with exact quantiles (no histogram buckets, so a
/// reported percentile moves with every measured digit).
class Dist {
 public:
  void Add(double value, double weight = 1.0) {
    samples_.emplace_back(value, weight);
    total_ += weight;
  }
  void Merge(const Dist& other) {
    for (const auto& s : other.samples_) Add(s.first, s.second);
  }
  size_t count() const { return samples_.size(); }
  double total_weight() const { return total_; }
  double Mean() const;
  /// Smallest sample whose cumulative weight reaches q of the total.
  double Quantile(double q) const;

 private:
  std::vector<std::pair<double, double>> samples_;  ///< (value, weight)
  double total_ = 0.0;
};

/// Median of `values` (the upper median for an even count; 0 if empty).
double Median(std::vector<double> values);

/// Activation visibility: time from an activation's scheduled send time
/// to the first observed published watermark covering its ticket, plus
/// the largest applies-per-publish step between consecutive epochs.
/// Thread-safe: producers Expect(), one poller Observe()s.
class VisibilityTracker {
 public:
  /// Tickets [first, last] were scheduled for `scheduled`.
  void Expect(uint64_t first, uint64_t last, Clock::time_point scheduled);
  /// A view with this epoch and watermark seq was current at `now`.
  void Observe(uint64_t epoch, uint64_t seq, Clock::time_point now);
  /// True when every expected ticket has been seen covered.
  bool Drained() const;
  Dist latency_ms() const;
  uint64_t max_step() const;

 private:
  struct Range {
    uint64_t first;
    uint64_t last;
    Clock::time_point scheduled;
  };
  mutable util::Mutex mutex_;
  std::deque<Range> pending_ ANC_GUARDED_BY(mutex_);
  Dist latency_ms_ ANC_GUARDED_BY(mutex_);
  uint64_t last_epoch_ ANC_GUARDED_BY(mutex_) = 0;
  uint64_t last_seq_ ANC_GUARDED_BY(mutex_) = 0;
  uint64_t max_step_ ANC_GUARDED_BY(mutex_) = 0;
};

/// One row of the traced per-layer breakdown.
struct LayerRow {
  std::string layer;
  std::string source;  ///< spans or histogram the time came from
  double self_ms = 0.0;
  /// Time a caller spent waiting on the layer (blocked on admission, or
  /// an RPC in flight outside the server) rather than the layer working.
  bool wait = false;
};

/// Everything one run reports. The driver prints it as one JSON object;
/// run.py adds the fingerprint and selects the metrics it prints last.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> checks_passed;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::map<std::string, double> info;
  std::vector<LayerRow> breakdown;
  double window_s = 0.0;  ///< wall time of the measured window

  /// Records a correctness check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& name, const std::string& detail = "");
  /// Counts one attempted operation (submit, query, recovery).
  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  obs::Json ToJson() const;
};

/// Mean of a registry histogram (0 when it recorded nothing).
double HistMean(const obs::StatsSnapshot& stats, const char* name);
/// Sum of a registry histogram.
double HistSum(const obs::StatsSnapshot& stats, const char* name);

/// Peak resident set of this process so far, in MB (getrusage).
double PeakRssMb();

/// Host-side context of a measured window: CPU time the hypervisor stole
/// from this machine (all CPUs, /proc/stat) and this process's minor page
/// faults. Neither is a metric; both explain noisy windows.
class HostCounters {
 public:
  HostCounters();
  /// Adds the deltas since construction to report->info.
  void Record(Report* report) const;

 private:
  double steal_s_;
  double minor_faults_;
};

/// Per span name: summed self time and number of spans.
struct SpanTotal {
  double self_ms = 0.0;
  uint64_t count = 0;
};

/// Folds a JSONL trace (obs::TraceSink output) into per-name self times:
/// a span's self time is its duration minus that of the spans nested
/// directly inside it on the same thread.
std::map<std::string, SpanTotal> SpanSelfTimes(std::istream& trace);

int RunIngestSaturate(const RunOptions& options, Report* report);
int RunDurableMixed(const RunOptions& options, Report* report);
int RunRpcMixed(const RunOptions& options, Report* report);

}  // namespace anc::perfbench

#endif  // ANC_PERFBENCH_BENCH_H_

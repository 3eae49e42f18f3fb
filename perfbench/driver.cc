// Workload driver of the serving-stack benchmark (README.md). One
// invocation runs one workload once and prints one JSON report on its
// last stdout line; run.py builds this binary and turns the report into
// the benchmark's result line.
//
//   anc_perfbench --workload ingest_saturate --seed 1 --seconds 10
//                 [--trace 0|1] [--tiny] [--repair-threads N]
//                 [--work-dir DIR]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"
#include "obs/metrics.h"

#ifndef ANC_BENCH_BUILD_TYPE
#define ANC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef ANC_BENCH_COMPILER
#define ANC_BENCH_COMPILER "unknown"
#endif
#ifndef ANC_BENCH_SANITIZE
#define ANC_BENCH_SANITIZE "OFF"
#endif

namespace anc::perfbench {

double Dist::Mean() const {
  if (total_ <= 0.0) return 0.0;
  double sum = 0.0;
  for (const auto& [value, weight] : samples_) sum += value * weight;
  return sum / total_;
}

double Dist::Quantile(double q) const {
  if (samples_.empty()) return 0.0;
  std::vector<std::pair<double, double>> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double target = q * total_;
  double cumulative = 0.0;
  for (const auto& [value, weight] : sorted) {
    cumulative += weight;
    if (cumulative >= target) return value;
  }
  return sorted.back().first;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

void VisibilityTracker::Expect(uint64_t first, uint64_t last,
                               Clock::time_point scheduled) {
  if (last < first) return;
  util::MutexLock lock(mutex_);
  pending_.push_back(Range{first, last, scheduled});
}

void VisibilityTracker::Observe(uint64_t epoch, uint64_t seq,
                                Clock::time_point now) {
  util::MutexLock lock(mutex_);
  if (epoch == last_epoch_ + 1 && seq > last_seq_) {
    max_step_ = std::max(max_step_, seq - last_seq_);
  }
  if (epoch != last_epoch_) {
    last_epoch_ = epoch;
    last_seq_ = seq;
  }
  while (!pending_.empty() && pending_.front().first <= seq) {
    Range& front = pending_.front();
    const uint64_t covered_last = std::min(front.last, seq);
    const double ms = SecondsBetween(front.scheduled, now) * 1e3;
    latency_ms_.Add(ms, static_cast<double>(covered_last - front.first + 1));
    if (covered_last == front.last) {
      pending_.pop_front();
    } else {
      front.first = covered_last + 1;
    }
  }
}

bool VisibilityTracker::Drained() const {
  util::MutexLock lock(mutex_);
  return pending_.empty();
}

Dist VisibilityTracker::latency_ms() const {
  util::MutexLock lock(mutex_);
  return latency_ms_;
}

uint64_t VisibilityTracker::max_step() const {
  util::MutexLock lock(mutex_);
  return max_step_;
}

void Report::Check(bool ok, const std::string& name,
                   const std::string& detail) {
  if (ok) {
    checks_passed.push_back(name);
  } else {
    check_failures.push_back(name + (detail.empty() ? "" : ": " + detail));
    std::fprintf(stderr, "CHECK FAILED %s %s\n", name.c_str(),
                 detail.c_str());
  }
}

obs::Json Report::ToJson() const {
  const auto numbers = [](const std::map<std::string, double>& values) {
    obs::Json out = obs::Json::Object();
    for (const auto& [name, value] : values) {
      out.Set(name, obs::Json::Number(value));
    }
    return out;
  };
  obs::Json out = obs::Json::Object();
  out.Set("correct", obs::Json::Bool(check_failures.empty()));
  out.Set("attempted", obs::Json::Number(static_cast<double>(attempted)));
  out.Set("failed", obs::Json::Number(static_cast<double>(failed)));
  obs::Json failures = obs::Json::Array();
  for (const std::string& f : check_failures) failures.Append(obs::Json::Str(f));
  out.Set("check_failures", std::move(failures));
  obs::Json passed = obs::Json::Array();
  for (const std::string& p : checks_passed) passed.Append(obs::Json::Str(p));
  out.Set("checks_passed", std::move(passed));
  out.Set("e2e", numbers(e2e));
  out.Set("layers", numbers(layers));
  out.Set("info", numbers(info));
  out.Set("window_s", obs::Json::Number(window_s));
  obs::Json rows = obs::Json::Array();
  for (const LayerRow& row : breakdown) {
    obs::Json r = obs::Json::Object();
    r.Set("layer", obs::Json::Str(row.layer));
    r.Set("source", obs::Json::Str(row.source));
    r.Set("self_ms", obs::Json::Number(row.self_ms));
    r.Set("wait", obs::Json::Bool(row.wait));
    rows.Append(std::move(r));
  }
  out.Set("breakdown", std::move(rows));
  return out;
}

double HistMean(const obs::StatsSnapshot& stats, const char* name) {
  const auto* h = stats.histogram(name);
  return (h == nullptr || h->count == 0) ? 0.0 : h->sum / h->count;
}

double HistSum(const obs::StatsSnapshot& stats, const char* name) {
  const auto* h = stats.histogram(name);
  return h == nullptr ? 0.0 : h->sum;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& f : fields) stat >> f;
  return stat ? fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

double MinorFaults() {
  struct rusage usage;
  return getrusage(RUSAGE_SELF, &usage) == 0
             ? static_cast<double>(usage.ru_minflt)
             : 0.0;
}

}  // namespace

HostCounters::HostCounters()
    : steal_s_(StealSeconds()), minor_faults_(MinorFaults()) {}

void HostCounters::Record(Report* report) const {
  report->info["host_steal_s"] = StealSeconds() - steal_s_;
  report->info["minor_faults"] = MinorFaults() - minor_faults_;
}

namespace {

// Minimal field readers for the fixed-shape JSONL lines TraceSink writes.
bool ReadStringField(const std::string& line, const char* key,
                     std::string* out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const size_t begin = at + needle.size();
  const size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  *out = line.substr(begin, end - begin);
  return true;
}

bool ReadNumberField(const std::string& line, const char* key, double* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtod(line.c_str() + at + needle.size(), &end);
  return end != line.c_str() + at + needle.size();
}

}  // namespace

std::map<std::string, SpanTotal> SpanSelfTimes(std::istream& trace) {
  // Spans are emitted on completion, so a span's children precede it on
  // its thread: child_us[tid][d] accumulates the depth-d spans not yet
  // claimed by their depth d-1 parent. Spans emitted once per trace id
  // (serve.apply / serve.publish / ingest.queue_wait cover every trace of
  // a batch) are de-duplicated by (tid, name, start).
  std::map<std::string, SpanTotal> totals;
  std::map<int, std::vector<double>> child_us;
  std::map<int, std::pair<std::string, double>> last_span;
  std::string line;
  while (std::getline(trace, line)) {
    std::string name;
    double ts = 0.0, dur = 0.0, depth_d = 0.0, tid_d = 0.0;
    if (!ReadStringField(line, "name", &name) ||
        !ReadNumberField(line, "ts_us", &ts) ||
        !ReadNumberField(line, "dur_us", &dur) ||
        !ReadNumberField(line, "depth", &depth_d) ||
        !ReadNumberField(line, "tid", &tid_d)) {
      continue;
    }
    const int tid = static_cast<int>(tid_d);
    const size_t depth = static_cast<size_t>(std::max(0.0, depth_d));
    auto& last = last_span[tid];
    if (last.first == name && last.second == ts) continue;
    last = {name, ts};
    auto& children = child_us[tid];
    if (children.size() < depth + 2) children.resize(depth + 2, 0.0);
    // ingest.queue_wait is a latency interval, not a parent: it encloses
    // nothing on the writer thread, so it never claims children.
    const bool wait_span = name == "ingest.queue_wait";
    const double nested = wait_span ? 0.0 : children[depth + 1];
    if (!wait_span) children[depth + 1] = 0.0;
    SpanTotal& total = totals[name];
    total.self_ms += std::max(0.0, dur - nested) / 1e3;
    ++total.count;
    if (!wait_span) children[depth] += dur;
  }
  return totals;
}

}  // namespace anc::perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: anc_perfbench --workload "
               "{ingest_saturate|durable_mixed|rpc_mixed} --seed N "
               "--seconds S [--trace 0|1] [--tiny] "
               "[--repair-threads N] [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace anc::perfbench;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--repair-threads" && has_value) {
      options.repair_threads =
          static_cast<uint32_t>(std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0.0) return Usage();
  if (options.work_dir.empty()) {
    options.work_dir = (std::filesystem::temp_directory_path() /
                        ("anc_perfbench_" + std::to_string(getpid())))
                           .string();
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create work dir %s\n",
                 options.work_dir.c_str());
    return 1;
  }

  Report report;
  int rc;
  if (options.workload == "ingest_saturate") {
    rc = RunIngestSaturate(options, &report);
  } else if (options.workload == "durable_mixed") {
    rc = RunDurableMixed(options, &report);
  } else if (options.workload == "rpc_mixed") {
    rc = RunRpcMixed(options, &report);
  } else {
    return Usage();
  }
  std::filesystem::remove_all(options.work_dir, ec);
  if (rc != 0) return rc;

  anc::obs::Json out = report.ToJson();
  anc::obs::Json build = anc::obs::Json::Object();
  build.Set("build_type", anc::obs::Json::Str(ANC_BENCH_BUILD_TYPE));
  build.Set("compiler", anc::obs::Json::Str(ANC_BENCH_COMPILER));
  build.Set("sanitize", anc::obs::Json::Str(ANC_BENCH_SANITIZE));
  build.Set("metrics", anc::obs::Json::Bool(anc::obs::kMetricsEnabled));
  out.Set("build", std::move(build));
  out.Set("workload", anc::obs::Json::Str(options.workload));
  out.Set("seed", anc::obs::Json::Number(static_cast<double>(options.seed)));
  out.Set("repair_threads",
          anc::obs::Json::Number(static_cast<double>(options.repair_threads)));
  out.Set("tiny", anc::obs::Json::Bool(options.tiny));
  out.Set("trace", anc::obs::Json::Bool(options.trace));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

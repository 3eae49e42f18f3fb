// The three workloads of the serving-stack benchmark (README.md):
//
//   ingest_saturate  one producer saturates an in-memory AncServer
//   durable_mixed    open-loop ingest into a group-commit WAL + tiered
//                    AncServer under two in-process readers
//   rpc_mixed        three RPC query clients and a slow RPC writer in
//                    front of one AncServer with the query cache on
//
// Every workload ends the same way: the server stops, the quiesced index
// is checked against the published view, the paper's Eq. (1) and the
// planted truth, and the service restarts from its store directory and
// answers over RPC (recover_s), byte-identically to the live index.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "activation/stream_generators.h"
#include "bench.h"
#include "core/anc.h"
#include "datasets/synthetic.h"
#include "metrics/quality.h"
#include "net/backend.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "store/store.h"
#include "tier/head.h"
#include "tier/tiered_store.h"
#include "util/rng.h"

namespace anc::perfbench {
namespace {

constexpr double kMb = 1024.0 * 1024.0;
/// Relative tolerance of the Eq. (1) activeness check.
constexpr double kActivenessTolerance = 1e-9;
/// Quality floor: NMI of Clusters() at the default level against the
/// planted communities (README.md "Quality floor").
constexpr double kNmiFloor = 0.80;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// Activations per SubmitBatch call of the saturating producer.
constexpr size_t kChunk = 256;
/// Every run of a workload serves the same graph; --seed varies the
/// traffic (README.md "Workloads").
constexpr uint64_t kGraphSeed = 1;

struct GraphSpec {
  PlantedPartitionParams planted;
  double step_fraction;  ///< share of edges activated per stream timestamp
  double intra_boost;    ///< intra- vs inter-community activation odds
};

/// n ~ 40k, m ~ 300k (ingest_saturate) and n ~ 10k, m ~ 75k (the mixed
/// workloads); tiny variants for the self-check.
GraphSpec LargeGraph(bool tiny) {
  GraphSpec spec;
  spec.planted.num_communities = tiny ? 16 : 500;
  spec.planted.min_size = tiny ? 30 : 40;
  spec.planted.max_size = tiny ? 60 : 120;
  spec.planted.p_in = tiny ? 0.3 : 0.16;
  spec.planted.mixing = 0.15;
  spec.step_fraction = 0.005;
  spec.intra_boost = 4.0;
  return spec;
}

GraphSpec MidGraph(bool tiny) {
  GraphSpec spec = LargeGraph(tiny);
  if (!tiny) spec.planted.num_communities = 125;
  return spec;
}

/// Generated input: graph, planted truth and an activation stream. Heap
/// allocated so the graph never moves under the index that points at it.
struct Inputs {
  GroundTruthGraph data;
  ActivationStream stream;
};

std::unique_ptr<Inputs> MakeInputs(const GraphSpec& spec, size_t stream_len,
                                   const RunOptions& options) {
  Rng graph_rng(kGraphSeed * 0x9E3779B97F4A7C15ULL + 0x51ED2701ULL);
  auto in = std::make_unique<Inputs>();
  in->data = PlantedPartition(spec.planted, graph_rng);
  Rng rng(options.seed * 0xD1B54A32D192ED03ULL + 0x2545F491ULL);
  const uint32_t m = in->data.graph.NumEdges();
  const size_t per_step = std::max<size_t>(
      1, static_cast<size_t>(spec.step_fraction * static_cast<double>(m)));
  const auto steps = static_cast<uint32_t>((stream_len + per_step - 1) / per_step);
  in->stream = CommunityBiasedStream(in->data.graph, in->data.truth.labels,
                                     steps, spec.step_fraction,
                                     spec.intra_boost, rng);
  if (in->stream.size() > stream_len) in->stream.resize(stream_len);
  return in;
}

AncConfig MakeConfig(const RunOptions& options) {
  AncConfig config;
  config.mode = AncMode::kOnline;
  config.pyramid.num_threads = options.repair_threads;
  return config;
}

double Since(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

/// `after` minus `before`: counters and histograms over the interval
/// between the two snapshots; gauges keep their `after` value.
obs::StatsSnapshot Delta(obs::StatsSnapshot after,
                         const obs::StatsSnapshot& before) {
  for (auto& c : after.counters) c.value -= before.counter(c.name);
  for (auto& h : after.histograms) {
    if (const auto* b = before.histogram(h.name)) {
      h.count -= b->count;
      h.sum -= b->sum;
      for (size_t i = 0; i < h.buckets.size() && i < b->buckets.size(); ++i) {
        h.buckets[i] -= b->buckets[i];
      }
    }
  }
  return after;
}

void RecordInputs(const Inputs& in, Report* report) {
  report->info["graph_nodes"] = in.data.graph.NumNodes();
  report->info["graph_edges"] = in.data.graph.NumEdges();
  report->info["stream_generated"] = static_cast<double>(in.stream.size());
}

// --- Query mix ------------------------------------------------------------

/// Mean LocalCluster answer of the paper's mixed workload (Fig. 10,
/// bench/bench_fig10_workload_mix.cc): about 300 nodes.
constexpr double kPaperAnswerNodes = 300.0;
/// Zipf exponent of rpc_mixed's LocalCluster nodes, an assumption
/// (README.md "Query mix"). It puts about three quarters of those
/// requests on cached answers; near one half, local_p50_us jumped between
/// hit and miss latencies from run to run.
constexpr double kZipfExponent = 1.3;

std::vector<NodeId> SampleNodes(uint32_t n, size_t count, Rng& rng) {
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < count; ++i) nodes.push_back(static_cast<NodeId>(rng.Uniform(n)));
  return nodes;
}

/// Which node and level each reader query asks about (README.md "Query
/// mix"). LocalCluster asks at one level, the coarsest whose mean answer
/// over 64 uniform nodes of the freshly built index (which depends on the
/// graph only, not on --seed) is at most kPaperAnswerNodes. The answers
/// come from the server's first view: the writer may be tiering the
/// index itself. Nodes are uniform, as in the paper's mixed workload,
/// unless Zipf-skewed.
struct QueryMix {
  uint32_t num_nodes = 0;
  uint32_t local_level = 1;
  double clusters_period_s = 0.5;  ///< one full Clusters per reader per period
  uint32_t smallest_every = 8;     ///< every 8th query is SmallestCluster
  uint32_t zoom_every = 0;         ///< RPC readers: every Nth query is a Zoom
  /// Skewed LocalCluster nodes: cumulative Zipf weights over popularity
  /// ranks and the node of each rank (empty: uniform).
  std::vector<double> zipf_cdf;
  std::vector<NodeId> by_rank;

  QueryMix(const serve::ClusterView& fresh, uint32_t n)
      : num_nodes(n), local_level(fresh.num_levels()) {
    Rng rng(kGraphSeed ^ 0xC0FFEEULL);
    const std::vector<NodeId> sample = SampleNodes(num_nodes, 64, rng);
    for (uint32_t level = fresh.num_levels(); level >= 1; --level) {
      double nodes = 0.0;
      for (const NodeId q : sample) {
        nodes += static_cast<double>(fresh.LocalCluster(q, level).size());
      }
      if (nodes / static_cast<double>(sample.size()) > kPaperAnswerNodes) break;
      local_level = level;
    }
  }

  /// Draws LocalCluster nodes from a Zipf law over the nodes, ranked by a
  /// permutation fixed by the graph seed (the popular nodes are part of
  /// the population being served, like the graph).
  void SkewLocalNodes() {
    Rng rng(kGraphSeed ^ 0x5EEDULL);
    by_rank.resize(num_nodes);
    for (uint32_t i = 0; i < num_nodes; ++i) by_rank[i] = i;
    for (uint32_t i = num_nodes; i > 1; --i) {
      std::swap(by_rank[i - 1], by_rank[rng.Uniform(i)]);
    }
    zipf_cdf.resize(num_nodes);
    double total = 0.0;
    for (uint32_t rank = 0; rank < num_nodes; ++rank) {
      total += std::pow(static_cast<double>(rank + 1), -kZipfExponent);
      zipf_cdf[rank] = total;
    }
    for (double& c : zipf_cdf) c /= total;
  }

  NodeId Node(Rng& rng, bool local) const {
    if (local && !zipf_cdf.empty()) {
      const auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(),
                                       rng.NextDouble());
      return by_rank[std::min<size_t>(it - zipf_cdf.begin(), num_nodes - 1)];
    }
    return static_cast<NodeId>(rng.Uniform(num_nodes));
  }
};

/// Reader-side measurements over a window, merged across reader threads.
struct QueryStats {
  void CountQuery(bool ok) {
    ++queries;
    if (!ok) ++failed;
  }

  Dist local_us;  ///< client-observed LocalCluster latency
  Dist clusters_ms;
  Dist view_us;
  double local_answer_nodes = 0.0;
  double local_query_us = 0.0;  ///< in-process LocalCluster time, view held
  uint64_t local_answers = 0;   ///< in-process LocalCluster answers timed
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t cache_hits = 0;

  void Merge(const QueryStats& other) {
    local_us.Merge(other.local_us);
    clusters_ms.Merge(other.clusters_ms);
    view_us.Merge(other.view_us);
    local_answer_nodes += other.local_answer_nodes;
    local_query_us += other.local_query_us;
    local_answers += other.local_answers;
    queries += other.queries;
    failed += other.failed;
    cache_hits += other.cache_hits;
  }
};

/// Closed-loop in-process reader over published views until `deadline`.
void InProcessReader(const serve::AncServer& server, const QueryMix& mix,
                     uint64_t seed, Clock::time_point deadline,
                     obs::TraceSink* sink, QueryStats* out) {
  Rng rng(seed);
  Clock::time_point next_clusters = Clock::now();
  for (uint64_t i = 0;; ++i) {
    const Clock::time_point start = Clock::now();
    if (start >= deadline) break;
    const bool clusters = start >= next_clusters;
    const bool smallest = !clusters && i % mix.smallest_every == 0;
    const obs::TraceContext trace =
        sink != nullptr ? obs::TraceContext::NewTrace() : obs::TraceContext{};
    obs::TraceSpan op(sink,
                      clusters   ? "bench.clusters"
                      : smallest ? "bench.smallest"
                                 : "bench.local",
                      trace);
    std::shared_ptr<const serve::ClusterView> view;
    {
      obs::TraceSpan acquire(sink, "bench.view", trace);
      view = server.View();
    }
    const Clock::time_point acquired = Clock::now();
    out->view_us.Add(SecondsBetween(start, acquired) * 1e6);
    const NodeId node = mix.Node(rng, /*local=*/!clusters && !smallest);
    bool ok = true;
    if (clusters) {
      const Clustering c = view->Clusters();
      ok = c.labels.size() == mix.num_nodes;
      out->clusters_ms.Add(Since(start) * 1e3);
      next_clusters = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      mix.clusters_period_s));
    } else if (smallest) {
      ok = !view->SmallestCluster(node).empty();
    } else {
      const std::vector<NodeId> members = view->LocalCluster(node, mix.local_level);
      const double query_us = Since(acquired) * 1e6;
      ok = !members.empty();
      out->local_us.Add(Since(start) * 1e6);
      out->local_answer_nodes += static_cast<double>(members.size());
      out->local_query_us += query_us;
      ++out->local_answers;
    }
    out->CountQuery(ok);
  }
}

/// Closed-loop RPC reader over its own connection until `deadline`. Its
/// first Clusters is due at `first_clusters`: readers are staggered so
/// that their Clusters calls fall in different epochs. In step, one call
/// missed the query cache and the others hit it or not depending on host
/// speed, and the median flipped between the two.
void RpcReader(uint16_t port, const QueryMix& mix, uint64_t seed,
               Clock::time_point first_clusters, Clock::time_point deadline,
               obs::TraceSink* sink, QueryStats* out) {
  auto client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    out->CountQuery(false);
    return;
  }
  Rng rng(seed);
  Clock::time_point next_clusters = first_clusters;
  for (uint64_t i = 0;; ++i) {
    const Clock::time_point start = Clock::now();
    if (start >= deadline) break;
    const bool clusters = start >= next_clusters;
    const bool zoom = !clusters && mix.zoom_every > 0 && i % mix.zoom_every == 1;
    const bool smallest = !clusters && !zoom && i % mix.smallest_every == 0;
    const obs::TraceContext trace =
        sink != nullptr ? obs::TraceContext::NewTrace() : obs::TraceContext{};
    obs::TraceSpan op(sink,
                      clusters   ? "bench.rpc.clusters"
                      : zoom     ? "bench.rpc.zoom"
                      : smallest ? "bench.rpc.smallest"
                                 : "bench.rpc.local",
                      trace);
    const NodeId node = mix.Node(rng, /*local=*/!clusters && !zoom && !smallest);
    bool ok;
    if (clusters) {
      auto c = (*client)->Clusters();
      ok = c.ok() && c->labels.size() == mix.num_nodes;
      out->clusters_ms.Add(Since(start) * 1e3);
      next_clusters = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      mix.clusters_period_s));
    } else if (zoom) {
      ok = (*client)->Zoom(node).ok();
    } else if (smallest) {
      ok = (*client)->SmallestCluster(node).ok();
    } else {
      auto members = (*client)->LocalCluster(node, mix.local_level);
      ok = members.ok() && !members->members.empty();
      out->local_us.Add(Since(start) * 1e6);
    }
    if ((*client)->last_flags() & net::kFlagCacheHit) ++out->cache_hits;
    out->CountQuery(ok);
  }
}

// --- Open-loop ingest -----------------------------------------------------

/// Polls the published view: feeds the visibility tracker and times the
/// View() acquire.
void PollView(const serve::AncServer& server, VisibilityTracker* tracker,
              Dist* view_us) {
  const Clock::time_point start = Clock::now();
  const auto view = server.View();
  const Clock::time_point now = Clock::now();
  view_us->Add(SecondsBetween(start, now) * 1e6);
  tracker->Observe(view->epoch(), view->watermark().seq, now);
}

Clock::time_point At(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

/// Open-loop sender: the window's activations are scheduled in groups of
/// `group`, group g at t0 + g * group / rate, and sent (in calls of at
/// most `max_per_call`, every due activation at once) as soon as the
/// sender gets to them; `send(first, count)` returns the last ticket
/// issued (0 on failure). Between sends the sender polls the published
/// view every `poll_s`. Returns the number of activations sent.
template <typename SendFn>
size_t OpenLoopSend(const serve::AncServer& server, size_t begin, size_t end,
                    double rate, size_t group, size_t max_per_call,
                    double poll_s, Clock::time_point t0,
                    Clock::time_point deadline, VisibilityTracker* tracker,
                    Dist* late_ms, Dist* view_us, const SendFn& send) {
  const auto scheduled_at = [&](size_t i) {
    return At(t0, static_cast<double>((i - begin) / group * group) / rate);
  };
  size_t pos = begin;
  while (pos < end) {
    const Clock::time_point now = Clock::now();
    if (now >= deadline) break;
    size_t due = pos;
    while (due < end && scheduled_at(due) <= now) due += group;
    due = std::min(due, end);
    while (pos < due) {
      const size_t count = std::min(max_per_call, due - pos);
      const Clock::time_point sent = Clock::now();
      const uint64_t last = send(pos, count);
      if (last == 0) {
        pos += count;
        continue;
      }
      for (size_t i = 0; i < count; ++i) {
        const Clock::time_point scheduled = scheduled_at(pos + i);
        late_ms->Add(std::max(0.0, SecondsBetween(scheduled, sent)) * 1e3);
        const uint64_t ticket = last - count + 1 + i;
        tracker->Expect(ticket, ticket, scheduled);
      }
      pos += count;
    }
    PollView(server, tracker, view_us);
    const Clock::time_point next_due = scheduled_at(pos);
    std::this_thread::sleep_until(
        std::min(next_due, At(Clock::now(), poll_s)));
  }
  return pos - begin;
}

/// Polls until every expected ticket is seen visible (after a Flush).
void DrainVisibility(const serve::AncServer& server, VisibilityTracker* tracker,
                     Dist* view_us) {
  while (!tracker->Drained()) {
    PollView(server, tracker, view_us);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

// --- Metrics shared by every workload ---------------------------------------

/// Writes the end-to-end visibility/query figures and the layer metrics
/// that come from the live index's registry.
void RecordServeMetrics(const obs::StatsSnapshot& stats, uint64_t applied,
                        double writer_wall_s, const VisibilityTracker& tracker,
                        const QueryStats& queries, double query_window_s,
                        Report* report) {
  const Dist visible = tracker.latency_ms();
  report->e2e["local_p50_us"] = queries.local_us.Quantile(0.50);
  report->e2e["clusters_p50_ms"] = queries.clusters_ms.Quantile(0.50);
  // Measured and printed, but not bounded: on a shared host they swung
  // with the hypervisor's steal beyond any allowed bound (README.md
  // "Steadiness").
  report->info["visible_p50_ms"] = visible.Quantile(0.50);
  report->info["visible_p90_ms"] = visible.Quantile(0.90);
  report->info["visible_p99_ms"] = visible.Quantile(0.99);
  report->info["local_p90_us"] = queries.local_us.Quantile(0.90);
  report->info["local_p99_us"] = queries.local_us.Quantile(0.99);
  report->info["query_qps"] = static_cast<double>(queries.queries) / query_window_s;
  report->info["clusters_samples"] = static_cast<double>(queries.clusters_ms.count());
  report->info["local_samples"] = static_cast<double>(queries.local_us.count());
  report->info["visible_samples"] = visible.total_weight();
  report->info["applied"] = static_cast<double>(applied);

  const double applied_d = std::max<double>(1.0, static_cast<double>(applied));
  auto& layers = report->layers;
  layers["core.apply_us"] = HistMean(stats, "anc.apply.latency_us");
  layers["similarity.apply_us"] = HistMean(stats, "anc.apply.sim_us");
  layers["pyramid.repair_us"] = HistMean(stats, "anc.apply.repair_us");
  layers["pyramid.touched_per_act"] =
      static_cast<double>(stats.counter("anc.index.touched_nodes")) / applied_d;
  layers["serve.queue_wait_us"] = HistMean(stats, "anc.serve.ingest_wait_us");
  layers["serve.publish_us"] = HistMean(stats, "anc.serve.snapshot_build_us");
  const double publish_s = HistSum(stats, "anc.serve.snapshot_build_us") / 1e6;
  layers["serve.publish_share"] = publish_s / writer_wall_s;
  report->info["publish_total_s"] = publish_s;
  report->info["writer_wall_s"] = writer_wall_s;
  layers["serve.applies_per_publish_max"] =
      static_cast<double>(tracker.max_step());
  layers["serve.view_us"] = queries.view_us.Quantile(0.99);
  layers["serve.epochs"] = static_cast<double>(stats.counter("anc.serve.epochs"));
  layers["tier.resident_mb"] =
      static_cast<double>(stats.gauge("anc.tier.resident_bytes")) / kMb;
  layers["tier.promotions_per_act"] =
      static_cast<double>(stats.counter("anc.tier.promotions")) / applied_d;
  if (queries.local_answer_nodes > 0) {
    layers["pyramid.local_us_per_node"] =
        queries.local_query_us / queries.local_answer_nodes;
    report->info["local_answer_mean_nodes"] =
        queries.local_answer_nodes / static_cast<double>(queries.local_answers);
  }
}

/// Store-layer metrics from a registry the DurableStore recorded into.
void RecordStoreMetrics(const obs::StatsSnapshot& stats, uint64_t applied,
                        double open_s, Report* report) {
  auto& layers = report->layers;
  layers["store.fsync_us"] = HistMean(stats, "anc.store.fsync_us");
  layers["store.checkpoint_ms"] = HistMean(stats, "anc.store.checkpoint_us") / 1e3;
  layers["store.wal_bytes_per_act"] =
      static_cast<double>(stats.counter("anc.store.wal_append_bytes")) /
      std::max<double>(1.0, static_cast<double>(applied));
  layers["store.open_s"] = open_s;
  report->info["store_fsyncs"] = static_cast<double>(stats.counter("anc.store.fsyncs"));
  report->info["store_checkpoints"] =
      static_cast<double>(stats.counter("anc.store.checkpoints"));
}

/// Net-layer metrics from a NetServer registry plus client-side timings.
void RecordNetMetrics(const obs::StatsSnapshot& stats, uint64_t hits,
                      uint64_t misses, const Dist& submit_us, Report* report) {
  report->layers["net.server_request_us"] = HistMean(stats, "anc.net.request_us");
  report->layers["net.cache_hit_ratio"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  report->info["net_cache_hits"] = static_cast<double>(hits);
  report->info["net_cache_lookups"] = static_cast<double>(hits + misses);
  report->layers["net.submit_us"] = submit_us.Mean();
}

/// Per-layer self times of the measured window from its trace, plus the
/// histogram-only layers (store, net server side).
void RecordBreakdown(std::istream& trace, const obs::StatsSnapshot& index_stats,
                     const obs::StatsSnapshot* net_stats, Report* report) {
  const std::map<std::string, SpanTotal> spans = SpanSelfTimes(trace);
  // Span name -> layer (README.md "Traced run").
  const std::vector<std::pair<const char*, const char*>> layer_of = {
      {"apply", "core"},
      {"ancor_pass", "core"},
      {"similarity", "similarity"},
      {"index_repair", "pyramid"},
      {"bench.local", "pyramid"},
      {"bench.smallest", "pyramid"},
      {"bench.clusters", "pyramid"},
      {"serve.apply", "serve"},
      {"serve.publish", "serve"},
      {"bench.submit", "serve"},
      {"bench.view", "serve"},
      {"bench.rpc.local", "net"},
      {"bench.rpc.smallest", "net"},
      {"bench.rpc.zoom", "net"},
      {"bench.rpc.clusters", "net"},
      {"bench.rpc.submit", "net"},
  };
  double rpc_ms = 0.0;
  for (const auto& [name, layer] : layer_of) {
    const auto it = spans.find(name);
    if (it == spans.end()) continue;
    if (std::string(layer) == "net") {
      rpc_ms += it->second.self_ms;
      continue;
    }
    // bench.submit's self time is the producer blocked on admission.
    report->breakdown.push_back(LayerRow{layer, std::string("span ") + name,
                                         it->second.self_ms,
                                         std::string(name) == "bench.submit"});
  }
  const auto wait = spans.find("ingest.queue_wait");
  if (wait != spans.end() && wait->second.count > 0) {
    report->info["trace_queue_wait_mean_us"] =
        wait->second.self_ms * 1e3 / static_cast<double>(wait->second.count);
  }
  report->breakdown.push_back(LayerRow{
      "store", "hist anc.store.fsync_us",
      HistSum(index_stats, "anc.store.fsync_us") / 1e3});
  report->breakdown.push_back(LayerRow{
      "store", "hist anc.store.checkpoint_us",
      HistSum(index_stats, "anc.store.checkpoint_us") / 1e3});
  if (net_stats != nullptr) {
    // Client-observed RPC time splits into the server's request handling
    // (decode, admission, cache, view query, encode) and the rest (client
    // encode/decode, loopback, waiting for a worker).
    const double server_ms = HistSum(*net_stats, "anc.net.request_us") / 1e3;
    report->breakdown.push_back(LayerRow{
        "net", "hist anc.net.request_us (server request handling)", server_ms});
    report->breakdown.push_back(LayerRow{
        "net", "span bench.rpc.* minus server handling (client + wire)",
        std::max(0.0, rpc_ms - server_ms), /*wait=*/true});
  }
}

// --- Correctness ------------------------------------------------------------

/// Eq. (1): a_T(e) = a_0 e^{-lambda T} + sum_i e^{-lambda (T - t_i)},
/// recomputed from the applied stream prefix and compared with the index.
void CheckActiveness(const AncIndex& index, const ActivationStream& stream,
                     size_t applied, Report* report) {
  const double lambda = index.config().similarity.lambda;
  const double initial = index.config().similarity.initial_activeness;
  const double t_end = applied == 0 ? 0.0 : stream[applied - 1].time;
  std::vector<double> expected(index.graph().NumEdges(),
                               initial * std::exp(-lambda * t_end));
  for (size_t i = 0; i < applied; ++i) {
    expected[stream[i].edge] += std::exp(-lambda * (t_end - stream[i].time));
  }
  double worst = 0.0;
  for (EdgeId e = 0; e < expected.size(); ++e) {
    const double actual = index.engine().activeness().ActivenessAt(e, t_end);
    worst = std::max(worst, std::abs(actual - expected[e]) / expected[e]);
  }
  report->info["activeness_max_rel_err"] = worst;
  report->Check(worst <= kActivenessTolerance, "activeness_eq1",
                "max relative error " + std::to_string(worst));
}

/// Quiesced-state checks: the last published view answers byte-identically
/// to the stopped index at every level, LocalCluster agrees with even
/// Clusters, Clusters labels every node, quality stays above the floor and
/// the activeness matches Eq. (1).
void CheckQuiesced(const Inputs& in, const AncIndex& index,
                   const serve::ClusterView& view, size_t applied, Rng& rng,
                   Report* report) {
  const uint32_t n = index.graph().NumNodes();
  report->Check(view.watermark().seq == applied, "view_watermark",
                std::to_string(view.watermark().seq) + " vs " +
                    std::to_string(applied));
  const std::vector<NodeId> sample = SampleNodes(n, 12, rng);
  bool same = true;
  bool labelled = true;
  bool consistent = true;
  for (uint32_t level = 1; level <= index.num_levels(); ++level) {
    const Clustering live = index.Clusters(level);
    const Clustering served = view.Clusters(level);
    same &= live.labels == served.labels && live.num_clusters == served.num_clusters;
    const Clustering even = view.Clusters(level, /*power=*/false);
    same &= even.labels == index.Clusters(level, false).labels;
    labelled &= served.labels.size() == n && served.NumAssigned() == n &&
                even.NumAssigned() == n;
    for (const NodeId q : sample) {
      std::vector<NodeId> local = view.LocalCluster(q, level);
      same &= local == index.LocalCluster(q, level);
      std::sort(local.begin(), local.end());
      std::vector<NodeId> members;
      for (NodeId v = 0; v < n; ++v) {
        if (even.labels[v] == even.labels[q]) members.push_back(v);
      }
      consistent &= local == members;
    }
  }
  report->Check(same, "view_matches_quiesced_index");
  report->Check(labelled, "clusters_label_every_node");
  report->Check(consistent, "local_equals_even_class");
  const double nmi = Nmi(view.Clusters(), in.data.truth);
  report->info["nmi_default_level"] = nmi;
  report->Check(nmi >= kNmiFloor, "quality_nmi_floor",
                "NMI " + std::to_string(nmi));
  CheckActiveness(index, in.stream, applied, report);
}

/// Restart: recovers `dir` (tier-aware Recover) kRestartRepeats times,
/// serves the last recovered index over RPC and verifies it against `live`
/// at ticket `live_seq`; then accepts a small remote write. recover_s runs
/// from Recover until the first RPC answer (median over the restarts).
/// `next` are the activations after the applied prefix (the post-restart
/// write).
struct RestartResult {
  obs::StatsSnapshot net_stats;
  uint64_t replayed_records = 0;
};

/// Restarts per run: recovery of an unchanged directory is idempotent,
/// so each restart measures the same work.
constexpr int kRestartRepeats = 5;

/// A recovered index served by an AncServer behind a NetServer, with one
/// client connection. Members stop in reverse order of declaration.
struct Restarted {
  store::RecoveredStore recovered;
  std::unique_ptr<serve::AncServer> server;
  std::unique_ptr<net::ServerBackend> backend;
  std::unique_ptr<net::NetServer> net_server;
  std::unique_ptr<net::Client> client;

  ~Restarted() {
    client.reset();
    if (net_server != nullptr) net_server->Stop();
    if (server != nullptr) server->Stop();
  }
};

/// One restart of `dir`; *seconds runs from Recover until the first RPC
/// answer.
Result<std::unique_ptr<Restarted>> Restart(const std::string& dir,
                                           double* seconds) {
  const Clock::time_point start = Clock::now();
  auto recovered = tier::Recover(dir);
  if (!recovered.ok()) return recovered.status();
  auto out = std::make_unique<Restarted>();
  out->recovered = std::move(*recovered);
  out->server = std::make_unique<serve::AncServer>(out->recovered.index.get(),
                                                   serve::ServeOptions{});
  if (!out->server->Start().ok()) {
    return Status::Unavailable("restart: server did not start");
  }
  out->backend = std::make_unique<net::ServerBackend>(out->server.get());
  net::NetServerOptions net_options;
  net_options.num_workers = 2;
  out->net_server = std::make_unique<net::NetServer>(out->backend.get(), net_options);
  if (!out->net_server->Start().ok()) {
    return Status::Unavailable("restart: listener did not start");
  }
  auto client = net::Client::Connect("127.0.0.1", out->net_server->port());
  if (!client.ok()) return client.status();
  out->client = std::move(*client);
  // The restarted server issues tickets from 1 again, so reads carry no
  // barrier: its first view already covers everything recovered.
  if (!out->client->LocalCluster(0).ok()) {
    return Status::Unavailable("restart: no first answer");
  }
  *seconds = Since(start);
  return out;
}

void RestartAndVerify(const std::string& dir, const AncIndex& live,
                      uint64_t live_seq, const Activation* next,
                      size_t next_count, bool deep_validate, Rng& rng,
                      Report* report, RestartResult* out) {
  std::unique_ptr<Restarted> restarted;
  std::vector<double> recover_s;
  for (int rep = 0; rep < kRestartRepeats; ++rep) {
    restarted.reset();
    double seconds = 0.0;
    auto attempt = Restart(dir, &seconds);
    report->Op(attempt.ok());
    if (!attempt.ok()) {
      report->Check(false, "restart_answers", attempt.status().ToString());
      return;
    }
    restarted = std::move(*attempt);
    recover_s.push_back(seconds);
  }
  report->e2e["recover_s"] = Median(recover_s);
  report->Check(true, "restart_answers");
  const store::RecoveredStore& recovered = restarted->recovered;
  AncIndex& index = *recovered.index;
  net::Client& client = *restarted->client;
  out->replayed_records = recovered.replayed_records;
  report->Check(recovered.watermark.seq == live_seq, "recovered_watermark",
                std::to_string(recovered.watermark.seq) + " vs " +
                    std::to_string(live_seq));

  // Recovered answers over RPC (a miss, then a cache hit) equal the live
  // index's at every level.
  bool same = true;
  bool hits = true;
  for (uint32_t level = 1; level <= live.num_levels(); ++level) {
    const std::vector<uint32_t> expected = live.Clusters(level).labels;
    for (int round = 0; round < 2; ++round) {
      auto c = client.Clusters(level);
      report->Op(c.ok());
      same &= c.ok() && c->labels == expected;
      if (round == 1) hits &= (client.last_flags() & net::kFlagCacheHit) != 0;
    }
    for (const NodeId q : SampleNodes(live.graph().NumNodes(), 4, rng)) {
      auto members = client.LocalCluster(q, level);
      report->Op(members.ok());
      same &= members.ok() && members->members == live.LocalCluster(q, level);
    }
  }
  report->Check(same, "recovered_rpc_answers_match_live");
  report->Check(hits, "rpc_cache_hit_on_repeat");
  double worst = 0.0;
  for (EdgeId e = 0; e < live.graph().NumEdges(); ++e) {
    const double t = live.engine().activeness().last_time();
    const double a = live.engine().activeness().ActivenessAt(e, t);
    const double b = index.engine().activeness().ActivenessAt(e, t);
    worst = std::max(worst, std::abs(a - b) / a);
  }
  report->Check(worst <= kActivenessTolerance, "recovered_activeness_match_live",
                std::to_string(worst));
  if (deep_validate) {
    const Status valid = index.ValidateInvariants(/*deep=*/true);
    report->Check(valid.ok(), "recovered_invariants_deep", valid.ToString());
  }

  // Post-restart remote write.
  const size_t per_call = 16;
  uint64_t last_seq = 0;
  for (size_t i = 0; i + per_call <= next_count; i += per_call) {
    const std::vector<Activation> batch(next + i, next + i + per_call);
    auto ack = client.SubmitBatch(batch);
    report->Op(ack.ok() && ack->accepted == per_call);
    if (ack.ok()) last_seq = ack->last_seq;
  }
  auto flushed = client.Flush();
  report->Check(flushed.ok() && flushed->seq == last_seq &&
                    last_seq == next_count / per_call * per_call,
                "restart_remote_write");
  out->net_stats = restarted->net_server->metrics().Snapshot();
}

/// Writes a shutdown checkpoint of an in-memory index into `dir` (the
/// store an in-memory deployment restarts from). Returns the open time.
double WriteShutdownCheckpoint(const std::string& dir, const AncIndex& index,
                               uint64_t seq, double time, Report* report) {
  const Clock::time_point start = Clock::now();
  auto store = store::DurableStore::Open(dir, index, store::Mark{seq, time},
                                         store::StoreOptions{},
                                         &index.metrics());
  const double open_s = Since(start);
  // A clean shutdown leaves the fresh WAL segment synced.
  const bool ok = store.ok() && (*store)->Sync().ok();
  report->Op(ok);
  report->Check(ok, "shutdown_checkpoint",
                store.ok() ? "" : store.status().ToString());
  return open_s;
}

/// The common tail: restart from `dir` and record what recovery replayed.
/// The restart's RPC handling is not a window cost of any workload, so it
/// prints as # info.
void FinishWithRestart(const std::string& dir, const AncIndex& live,
                       uint64_t applied, const Inputs& in, bool deep_validate,
                       Rng& rng, Report* report) {
  const size_t next_count = std::min<size_t>(64, in.stream.size() - applied);
  RestartResult restart;
  RestartAndVerify(dir, live, applied, in.stream.data() + applied, next_count,
                   deep_validate, rng, report, &restart);
  report->layers["store.replayed_records"] =
      static_cast<double>(restart.replayed_records);
  report->info["restart_net_request_us"] =
      HistMean(restart.net_stats, "anc.net.request_us");
}

/// The measured window's trace sink (--trace 1), kept in memory so the
/// window writes no trace file. The workload detaches it from the index
/// when the window closes; Finish() runs once the server has stopped (so
/// no writer iteration still holds the sink) and folds the spans into the
/// report's breakdown.
class TraceScope {
 public:
  explicit TraceScope(const RunOptions& options) {
    if (options.trace) sink_ = std::make_unique<obs::TraceSink>(&spans_);
  }
  obs::TraceSink* get() const { return sink_.get(); }
  void Finish(const obs::StatsSnapshot& index_stats,
              const obs::StatsSnapshot* net_stats, Report* report) {
    if (sink_ == nullptr) return;
    sink_.reset();
    RecordBreakdown(spans_, index_stats, net_stats, report);
  }

 private:
  std::stringstream spans_;
  std::unique_ptr<obs::TraceSink> sink_;
};

}  // namespace

// --- ingest_saturate ----------------------------------------------------------

/// Activations ingest_saturate applies before its window, untimed, so the
/// window measures a server past its first publishes (README.md
/// "Workloads").
constexpr size_t kIngestWarmup = 30000;

int RunIngestSaturate(const RunOptions& options, Report* report) {
  const GraphSpec spec = LargeGraph(options.tiny);
  // Enough stream for a window at up to 60k activations/s; the tiny
  // self-check graph gets about one activation per two edges, the same
  // density the full run reaches.
  const size_t warmup = options.tiny ? 300 : kIngestWarmup;
  const size_t stream_len =
      warmup + (options.tiny ? 1200 : static_cast<size_t>(60000.0 * options.seconds) + 1024);
  const auto in = MakeInputs(spec, stream_len, options);
  RecordInputs(*in, report);
  Rng rng(options.seed + 17);

  // Set-up: index build + server start, repeated; the last one serves.
  std::unique_ptr<AncIndex> index;
  std::unique_ptr<serve::AncServer> server;
  std::vector<double> setup_s, build_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    index.reset();
    const Clock::time_point start = Clock::now();
    auto created = AncIndex::Create(in->data.graph, MakeConfig(options));
    if (!created.ok()) return 1;
    index = std::move(*created);
    build_s.push_back(Since(start));
    server = std::make_unique<serve::AncServer>(index.get(), serve::ServeOptions{});
    if (!server->Start().ok()) return 1;
    setup_s.push_back(Since(start));
  }
  report->e2e["setup_s"] = Median(setup_s);
  report->layers["core.build_s"] = Median(build_s);
  QueryMix mix(*server->View(), in->data.graph.NumNodes());
  report->info["local_level"] = mix.local_level;

  for (size_t pos = 0; pos < warmup; pos += kChunk) {
    const size_t count = std::min(kChunk, warmup - pos);
    auto accepted = server->SubmitBatch(in->stream.data() + pos, count);
    report->Op(accepted.ok() && *accepted == count);
  }
  report->Check(server->Flush().ok(), "warmup_flush");

  TraceScope trace(options);
  if (trace.get() != nullptr) index->SetTraceSink(trace.get());

  // Watcher: polls the published view for visibility and epoch steps.
  VisibilityTracker tracker;
  Dist view_us;
  std::atomic<bool> stop_watch{false};
  std::thread watcher([&] {
    while (!stop_watch.load(std::memory_order_acquire)) {
      PollView(*server, &tracker, &view_us);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  const obs::StatsSnapshot before = index->Stats();
  // Producer: saturate through SubmitBatch until the window closes.
  Dist submit_us;
  std::vector<obs::TraceContext> traces(kChunk);
  const HostCounters host;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = At(t0, options.seconds);
  size_t pos = warmup;
  while (pos < in->stream.size() && Clock::now() < deadline) {
    const size_t count = std::min(kChunk, in->stream.size() - pos);
    const obs::TraceContext ctx = trace.get() != nullptr
                                      ? obs::TraceContext::NewTrace()
                                      : obs::TraceContext{};
    std::fill(traces.begin(), traces.begin() + count, ctx);
    uint64_t last_seq = 0;
    const Clock::time_point sent = Clock::now();
    Result<size_t> accepted = [&] {
      obs::TraceSpan span(trace.get(), "bench.submit", ctx);
      return server->SubmitBatch(in->stream.data() + pos, count, &last_seq,
                                 trace.get() != nullptr ? traces.data() : nullptr);
    }();
    submit_us.Add(Since(sent) * 1e6);
    const bool ok = accepted.ok() && *accepted == count;
    report->Op(ok);
    if (ok) tracker.Expect(last_seq - count + 1, last_seq, sent);
    pos += count;
  }
  const bool flushed = server->Flush().ok();
  const double ingest_s = Since(t0);
  host.Record(report);
  report->Check(flushed, "flush");
  while (!tracker.Drained() && Since(t0) < options.seconds + 60) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop_watch.store(true, std::memory_order_release);
  watcher.join();
  const size_t applied = pos;
  const size_t window_applied = applied - warmup;
  report->e2e["ingest_aps"] = static_cast<double>(window_applied) / ingest_s;
  const obs::StatsSnapshot ingest_stats = Delta(index->Stats(), before);
  report->e2e["peak_rss_mb"] = PeakRssMb();

  // Read phase on the final view: one closed-loop in-process reader.
  const double read_s = std::max(0.5, 0.2 * options.seconds);
  mix.clusters_period_s = read_s / 8.0;
  const Clock::time_point read_start = Clock::now();
  QueryStats queries;
  InProcessReader(*server, mix, options.seed + 1, At(read_start, read_s),
                  trace.get(), &queries);
  report->window_s = ingest_s + read_s;
  report->attempted += queries.queries;
  report->failed += queries.failed;
  queries.view_us.Merge(view_us);
  RecordServeMetrics(ingest_stats, window_applied, ingest_s, tracker, queries,
                     read_s, report);
  report->layers["serve.submit_us"] = submit_us.Mean();
  index->SetTraceSink(nullptr);

  // Quiesce and check.
  const auto view = server->View();
  server->Stop();
  trace.Finish(ingest_stats, nullptr, report);
  CheckQuiesced(*in, *index, *view, applied, rng, report);
  const Status valid = index->ValidateInvariants(/*deep=*/true);
  report->Check(valid.ok(), "invariants_deep", valid.ToString());

  // The window crossed neither the store nor the net layer, so they read
  // 0; the restart from a shutdown checkpoint prints as # info restart_*.
  RecordStoreMetrics(ingest_stats, window_applied, 0.0, report);
  RecordNetMetrics(obs::StatsSnapshot{}, 0, 0, Dist{}, report);
  const std::string dir = options.work_dir + "/store";
  report->info["restart_checkpoint_s"] = WriteShutdownCheckpoint(
      dir, *index, applied, in->stream[applied - 1].time, report);
  FinishWithRestart(dir, *index, applied, *in, /*deep_validate=*/false, rng,
                    report);
  return 0;
}

// --- durable_mixed -------------------------------------------------------------

/// Offered ingest rate of durable_mixed (README.md "Workloads"): well
/// under the rate at which the durable path saturates with two readers
/// (~5.7k/s on the reference machine), so visibility measures publish
/// cadence, group commit and checkpoint stalls rather than a backlog.
constexpr double kDurableRate = 1000.0;
/// ... arriving in groups of 10 every 10 ms: one group commit (fsync) per
/// group, not per activation, so the writer's fsync load stays far from
/// saturating even when the host's disk is slow.
constexpr size_t kDurableGroup = 10;

int RunDurableMixed(const RunOptions& options, Report* report) {
  const GraphSpec spec = MidGraph(options.tiny);
  const double rate = options.tiny ? 2000.0 : kDurableRate;
  const size_t window_len = static_cast<size_t>(rate * options.seconds) + 1;
  const auto in = MakeInputs(spec, window_len + 1024, options);
  RecordInputs(*in, report);
  Rng rng(options.seed + 17);
  const std::string dir = options.work_dir + "/store";

  std::unique_ptr<AncIndex> index;
  std::unique_ptr<tier::TieredStore> tier;
  std::unique_ptr<store::DurableStore> store;
  std::unique_ptr<serve::AncServer> server;
  std::vector<double> setup_s, build_s, open_s;
  uint64_t budget = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    store.reset();
    tier.reset();
    index.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    const Clock::time_point start = Clock::now();
    auto created = AncIndex::Create(in->data.graph, MakeConfig(options));
    if (!created.ok()) return 1;
    index = std::move(*created);
    build_s.push_back(Since(start));
    if (rep == 0) {
      // RAM budget: a quarter of the tierable columns' footprint, probed
      // once with an uncapped tier (untimed; destroying it detaches).
      const std::string probe_dir = options.work_dir + "/probe";
      auto probe = tier::TieredStore::Open(probe_dir, tier::TierOptions{});
      if (!probe.ok()) return 1;
      index->AttachTier(probe->get());
      budget = (*probe)->resident_bytes() / 4;
      probe->reset();
      std::filesystem::remove_all(probe_dir, ec);
    }
    const Clock::time_point open_start = Clock::now();
    tier::TierOptions tier_options;
    tier_options.tier_budget_bytes = budget;
    auto opened_tier = tier::TieredStore::Open(dir, tier_options, &index->metrics());
    if (!opened_tier.ok()) return 1;
    tier = std::move(*opened_tier);
    index->AttachTier(tier.get());
    store::StoreOptions store_options;
    store_options.checkpoint_writer = tier->CheckpointWriter();
    auto opened = store::DurableStore::Open(dir, *index, store::Mark{0, 0.0},
                                            store_options, &index->metrics());
    if (!opened.ok()) return 1;
    store = std::move(*opened);
    tier->OnCheckpointInstalled();
    open_s.push_back(Since(open_start));
    serve::ServeOptions serve_options;
    serve_options.durability = serve::DurabilityPolicy::kGroupCommit;
    serve_options.store = store.get();
    serve_options.tier = tier.get();
    // Two checkpoints per window (at 3/8 and 6/8 of it), so every window
    // crosses the same number of checkpoint stalls.
    serve_options.checkpoint_every_applied = std::max<uint64_t>(
        100, static_cast<uint64_t>(rate * options.seconds * 3 / 8));
    server = std::make_unique<serve::AncServer>(index.get(), serve_options);
    if (!server->Start().ok()) return 1;
    setup_s.push_back(build_s.back() + Since(open_start));
  }
  report->e2e["setup_s"] = Median(setup_s);
  report->layers["core.build_s"] = Median(build_s);
  report->info["tier_budget_mb"] = static_cast<double>(budget) / kMb;
  const QueryMix mix(*server->View(), in->data.graph.NumNodes());
  report->info["local_level"] = mix.local_level;

  TraceScope trace(options);
  if (trace.get() != nullptr) index->SetTraceSink(trace.get());

  const obs::StatsSnapshot before = index->Stats();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = At(t0, options.seconds);
  std::vector<QueryStats> reader_stats(2);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < reader_stats.size(); ++r) {
    readers.emplace_back([&, r] {
      InProcessReader(*server, mix, options.seed * 31 + r, deadline,
                      trace.get(), &reader_stats[r]);
    });
  }

  VisibilityTracker tracker;
  Dist late_ms, view_us, submit_us;
  const HostCounters host;
  const size_t sent = OpenLoopSend(
      *server, 0, window_len, rate, kDurableGroup, kChunk, 250e-6, t0,
      deadline, &tracker,
      &late_ms, &view_us, [&](size_t first, size_t count) -> uint64_t {
        const obs::TraceContext ctx = trace.get() != nullptr
                                          ? obs::TraceContext::NewTrace()
                                          : obs::TraceContext{};
        std::vector<obs::TraceContext> traces(trace.get() != nullptr ? count : 0, ctx);
        uint64_t last_seq = 0;
        const Clock::time_point start = Clock::now();
        Result<size_t> accepted = [&] {
          obs::TraceSpan span(trace.get(), "bench.submit", ctx);
          return server->SubmitBatch(in->stream.data() + first, count, &last_seq,
                                     traces.empty() ? nullptr : traces.data());
        }();
        submit_us.Add(Since(start) * 1e6);
        const bool ok = accepted.ok() && *accepted == count;
        for (size_t i = 0; i < count; ++i) report->Op(ok);
        return ok ? last_seq : 0;
      });
  for (auto& reader : readers) reader.join();
  const double window_s = Since(t0);
  host.Record(report);
  report->Check(server->FlushDurable().ok(), "flush_durable");
  DrainVisibility(*server, &tracker, &view_us);
  report->window_s = window_s;
  const obs::StatsSnapshot stats = Delta(index->Stats(), before);
  report->e2e["peak_rss_mb"] = PeakRssMb();
  report->e2e["ingest_aps"] = static_cast<double>(sent) / window_s;

  QueryStats queries;
  for (const QueryStats& q : reader_stats) queries.Merge(q);
  report->attempted += queries.queries;
  report->failed += queries.failed;
  queries.view_us.Merge(view_us);
  RecordServeMetrics(stats, sent, window_s, tracker, queries, window_s, report);
  report->layers["serve.submit_us"] = submit_us.Mean();
  report->info["late_p99_ms"] = late_ms.Quantile(0.99);
  index->SetTraceSink(nullptr);

  const auto view = server->View();
  report->Check(server->durable_watermark().seq == sent, "durable_watermark",
                std::to_string(server->durable_watermark().seq));
  server->Stop();
  trace.Finish(stats, nullptr, report);
  CheckQuiesced(*in, *index, *view, sent, rng, report);
  RecordStoreMetrics(stats, sent, Median(open_s), report);

  // Crash-stop: close the WAL, bring every page home, recover the
  // directory and compare with the live index.
  // The window did not cross the net layer (the restart's RPCs print as
  // # info restart_*).
  RecordNetMetrics(obs::StatsSnapshot{}, 0, 0, Dist{}, report);
  server.reset();
  store.reset();
  tier->DetachAll();
  tier.reset();
  FinishWithRestart(dir, *index, sent, *in, /*deep_validate=*/true, rng, report);
  return 0;
}

// --- rpc_mixed ----------------------------------------------------------------

/// rpc_mixed's writer: kRpcWriteBatch activations every kRpcWritePeriod
/// (1,000 activations/s in 20 batches), so publishes invalidate the query
/// cache about 20 times a second.
constexpr size_t kRpcWriteBatch = 50;
constexpr double kRpcWritePeriod = 0.05;
/// Activations applied in process before the window opens, so readers
/// query an index with history.
constexpr size_t kRpcWarmup = 20000;

int RunRpcMixed(const RunOptions& options, Report* report) {
  const GraphSpec spec = MidGraph(options.tiny);
  const size_t warmup = options.tiny ? 2000 : kRpcWarmup;
  const double rate = static_cast<double>(kRpcWriteBatch) / kRpcWritePeriod;
  const size_t window_len = static_cast<size_t>(rate * options.seconds) + 1;
  const auto in = MakeInputs(spec, warmup + window_len + 1024, options);
  RecordInputs(*in, report);
  Rng rng(options.seed + 17);

  std::unique_ptr<AncIndex> index;
  std::unique_ptr<serve::AncServer> server;
  std::unique_ptr<net::ServerBackend> backend;
  std::unique_ptr<net::NetServer> net_server;
  std::vector<double> setup_s, build_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    net_server.reset();
    backend.reset();
    server.reset();
    index.reset();
    const Clock::time_point start = Clock::now();
    auto created = AncIndex::Create(in->data.graph, MakeConfig(options));
    if (!created.ok()) return 1;
    index = std::move(*created);
    build_s.push_back(Since(start));
    server = std::make_unique<serve::AncServer>(index.get(), serve::ServeOptions{});
    if (!server->Start().ok()) return 1;
    net::ServerBackendOptions backend_options;
    backend_options.max_log_bytes = 1 << 20;
    backend = std::make_unique<net::ServerBackend>(server.get(), backend_options);
    net::NetServerOptions net_options;
    net_options.num_workers = 4;
    net_server = std::make_unique<net::NetServer>(backend.get(), net_options);
    if (!net_server->Start().ok()) return 1;
    setup_s.push_back(Since(start));
  }
  report->e2e["setup_s"] = Median(setup_s);
  report->layers["core.build_s"] = Median(build_s);
  QueryMix mix(*server->View(), in->data.graph.NumNodes());
  mix.SkewLocalNodes();
  mix.zoom_every = 256;
  mix.smallest_every = 32;
  report->info["local_level"] = mix.local_level;

  // Warm-up history, in process and untimed.
  for (size_t pos = 0; pos < warmup; pos += kChunk) {
    const size_t count = std::min(kChunk, warmup - pos);
    auto accepted = server->SubmitBatch(in->stream.data() + pos, count);
    report->Op(accepted.ok() && *accepted == count);
  }
  report->Check(server->Flush().ok(), "warmup_flush");
  // The window's activations reach SubmitBatch inside the server's RPC
  // handler, timed as net.submit_us; no in-process submit is measured.
  report->layers["serve.submit_us"] = 0.0;
  const obs::StatsSnapshot warm_stats = index->Stats();
  const obs::StatsSnapshot warm_net = net_server->metrics().Snapshot();
  const uint64_t warm_hits = net_server->cache().hits();
  const uint64_t warm_misses = net_server->cache().misses();

  TraceScope trace(options);
  if (trace.get() != nullptr) index->SetTraceSink(trace.get());

  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = At(t0, options.seconds);
  std::vector<QueryStats> reader_stats(3);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < reader_stats.size(); ++r) {
    readers.emplace_back([&, r] {
      const double offset_s = mix.clusters_period_s * static_cast<double>(r) /
                              static_cast<double>(reader_stats.size());
      RpcReader(net_server->port(), mix, options.seed * 31 + r,
                At(t0, offset_s), deadline, trace.get(), &reader_stats[r]);
    });
  }

  auto writer = net::Client::Connect("127.0.0.1", net_server->port());
  report->Check(writer.ok(), "writer_connect");
  if (!writer.ok()) {
    for (auto& reader : readers) reader.join();
    return 1;
  }
  VisibilityTracker tracker;
  Dist late_ms, view_us, rpc_submit_us;
  const HostCounters host;
  const size_t sent = OpenLoopSend(
      *server, warmup, warmup + window_len, rate, kRpcWriteBatch,
      kRpcWriteBatch, 1e-3, t0,
      deadline, &tracker, &late_ms, &view_us,
      [&](size_t first, size_t count) -> uint64_t {
        const std::vector<Activation> batch(in->stream.begin() + first,
                                            in->stream.begin() + first + count);
        const Clock::time_point start = Clock::now();
        Result<net::SubmitAck> ack = [&] {
          obs::TraceSpan span(trace.get(), "bench.rpc.submit");
          return (*writer)->SubmitBatch(batch);
        }();
        rpc_submit_us.Add(Since(start) * 1e6);
        const bool ok = ack.ok() && ack->accepted == count;
        for (size_t i = 0; i < count; ++i) report->Op(ok);
        return ok ? ack->last_seq : 0;
      });
  for (auto& reader : readers) reader.join();
  const double window_s = Since(t0);
  host.Record(report);
  auto flushed = (*writer)->Flush();
  report->Check(flushed.ok(), "flush");
  DrainVisibility(*server, &tracker, &view_us);
  report->window_s = window_s;
  const size_t applied = warmup + sent;
  report->e2e["peak_rss_mb"] = PeakRssMb();
  report->e2e["ingest_aps"] = static_cast<double>(sent) / window_s;

  // Window-only deltas of the index and net registries.
  const obs::StatsSnapshot stats = Delta(index->Stats(), warm_stats);
  const obs::StatsSnapshot net_window =
      Delta(net_server->metrics().Snapshot(), warm_net);
  const uint64_t hits = net_server->cache().hits() - warm_hits;
  const uint64_t misses = net_server->cache().misses() - warm_misses;
  QueryStats queries;
  for (const QueryStats& q : reader_stats) queries.Merge(q);
  report->attempted += queries.queries;
  report->failed += queries.failed;
  queries.view_us.Merge(view_us);
  report->info["late_p99_ms"] = late_ms.Quantile(0.99);
  report->info["reader_cache_hits"] = static_cast<double>(queries.cache_hits);
  index->SetTraceSink(nullptr);

  // RPC answers equal in-process answers at the same min_seq, cache hits
  // included; the in-process side also times view queries per answer node.
  const uint64_t seq = flushed.ok() ? flushed->seq : 0;
  const auto view = server->View();
  bool same = view->watermark().seq == seq;
  bool hit_seen = true;
  for (uint32_t level = 1; level <= view->num_levels(); ++level) {
    const std::vector<uint32_t> expected = view->Clusters(level).labels;
    for (int round = 0; round < 2; ++round) {
      auto c = (*writer)->Clusters(level, seq);
      report->Op(c.ok());
      same &= c.ok() && c->labels == expected;
    }
  }
  for (const NodeId q : SampleNodes(in->data.graph.NumNodes(), 48, rng)) {
    const uint32_t level = mix.local_level;
    const Clock::time_point start = Clock::now();
    const std::vector<NodeId> expected = view->LocalCluster(q, level);
    queries.local_query_us += Since(start) * 1e6;
    queries.local_answer_nodes += static_cast<double>(expected.size());
    ++queries.local_answers;
    for (int round = 0; round < 2; ++round) {
      auto members = (*writer)->LocalCluster(q, level, seq);
      report->Op(members.ok());
      same &= members.ok() && members->members == expected;
      if (round == 1) {
        hit_seen &= ((*writer)->last_flags() & net::kFlagCacheHit) != 0;
      }
    }
    auto smallest = (*writer)->SmallestCluster(q, 8, seq);
    uint32_t smallest_level = 0;
    same &= smallest.ok() &&
            smallest->members == view->SmallestCluster(q, 8, &smallest_level) &&
            smallest->level == smallest_level;
    auto zoom = (*writer)->Zoom(q, seq);
    same &= zoom.ok() && zoom->cluster_sizes.size() == view->num_levels();
  }
  report->Check(same, "rpc_answers_match_in_process");
  report->Check(hit_seen, "rpc_cache_hit_on_repeat");

  RecordServeMetrics(stats, sent, window_s, tracker, queries, window_s, report);
  RecordNetMetrics(net_window, hits, misses, rpc_submit_us, report);

  writer->reset();
  net_server->Stop();
  server->Stop();
  trace.Finish(stats, &net_window, report);
  CheckQuiesced(*in, *index, *view, applied, rng, report);

  // The window did not cross the store layer, so it reads 0; the restart
  // from a shutdown checkpoint prints as # info restart_*.
  RecordStoreMetrics(stats, applied, 0.0, report);
  const std::string dir = options.work_dir + "/store";
  report->info["restart_checkpoint_s"] = WriteShutdownCheckpoint(
      dir, *index, applied, in->stream[applied - 1].time, report);
  FinishWithRestart(dir, *index, applied, *in, /*deep_validate=*/false, rng,
                    report);
  return 0;
}

}  // namespace anc::perfbench

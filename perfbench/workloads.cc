// The three workloads: serve_http, batch_assign and ingest_live.
//
// Each run sets up its corpus and engine with the full offline pipeline
// (as `kpef_cli build` does), measures its load for the requested window,
// then checks the answers against oracles written in this directory
// (oracle.h). Traced runs additionally record spans around every layer
// call and seam and report the per-layer metrics instead of the
// end-to-end ones. run.py splits an untraced run into parts, one process
// each, and reports medians over them.
//
// Only deployment settings are chosen here: ports, the artifact and WAL
// directory, and worker counts equal to the host's cores. Every tuning
// option keeps the program's default.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/engine_group.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "data/drip.h"
#include "data/queries.h"
#include "harness.h"
#include "http_client.h"
#include "ingest/coordinator.h"
#include "json_lite.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "ranking/expert_score.h"
#include "ranking/top_n_finder.h"
#include "serve/http_server.h"
#include "serve/service.h"
#include "spans.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using kpef::serve::HttpRequest;
using kpef::serve::HttpServer;

// --- Input make-up (README "Inputs") -----------------------------------

/// Experts asked for per query (`n` of POST /v1/find_experts).
constexpr size_t kTopN = 10;
/// Closed-loop query connections of serve_http (= host cores here).
constexpr size_t kServeConnections = 4;
/// Query connections beside the ingest connection in ingest_live.
constexpr size_t kIngestQueryConnections = 2;
/// Submissions per FindExpertsBatch call in batch_assign.
constexpr size_t kAssignBatch = 64;
/// Papers per POST /v1/admin/ingest batch.
constexpr size_t kIngestBatch = 16;
/// Recall@m floor of the engine's retrieval against the exact scan.
constexpr double kRecallFloor = 0.9;
/// Queries whose recall is checked against the exact scan.
constexpr size_t kRecallQueries = 100;

struct Scale {
  double corpus_factor;     // of the AMiner profile's 3000 papers
  double ingest_factor;     // ingest_live's corpus, base plus tail
  size_t serve_pool;        // distinct query texts of serve_http
  size_t assign_batches;    // distinct 64-text batches of batch_assign
  size_t ingest_pool;       // query texts of ingest_live (all scored for MAP)
  size_t ingest_holdout;    // tail papers ingested live
};

Scale ScaleFor(const Options& options) {
  if (options.short_mode) return {0.2, 0.4, 40, 2, 40, 600};
  return {1.0, 2.0, 1000, 16, 2500, 3000};
}

size_t HostCores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- Statistics ---------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// --- Set-up -------------------------------------------------------------

enum class Kind { kServe, kAssign, kIngest };

/// Everything one set-up builds, and its scratch directory (removed with
/// it). Members are declared in dependency order, so destruction tears
/// the server down before the service, the service before the pool and
/// the engines before their corpus.
struct Fixture {
  std::string dir;
  std::unique_ptr<kpef::Dataset> dataset;
  std::unique_ptr<kpef::Corpus> corpus;
  std::vector<kpef::DripPaper> tail;
  kpef::EngineConfig serving_config;
  kpef::EngineBuildReport report;
  std::unique_ptr<kpef::ExpertFindingEngine> engine;
  std::unique_ptr<kpef::EngineGroup> group;
  std::unique_ptr<kpef::IngestCoordinator> ingest;
  std::unique_ptr<kpef::ThreadPool> pool;
  std::unique_ptr<kpef::serve::ExpertSearchService> service;
  std::unique_ptr<HttpServer> server;
  double setup_seconds = 0.0;

  ~Fixture() {
    if (server) server->ShutdownGracefully();
    if (service) service->Drain();
    std::error_code ignored;
    fs::remove_all(dir, ignored);
  }
};

/// Batch log of the traced BatchExecuteFn seam: which pool texts rode in
/// which engine call, so requests can be linked to their batch.
struct BatchLog {
  struct Entry {
    uint64_t span_id = 0;
    std::vector<uint32_t> texts;
  };
  std::mutex mutex;
  std::vector<Entry> entries;  // guarded by mutex
  std::atomic<uint64_t> next{1};
  std::unordered_map<std::string, uint32_t> text_index;  // read-only
};

/// The service as kpef_serve wires it (ForEngineGroup), or — in traced
/// runs — the same wiring with the BatchExecuteFn and ServiceHooks::ingest
/// seams wrapped in spans.
std::unique_ptr<kpef::serve::ExpertSearchService> MakeService(
    Fixture* f, const kpef::serve::ServiceConfig& config, BatchLog* log) {
  if (log == nullptr) {
    return kpef::serve::ExpertSearchService::ForEngineGroup(
        f->group.get(), config, f->ingest.get());
  }
  kpef::EngineGroup* group = f->group.get();
  kpef::serve::BatchExecuteFn execute =
      [group, log](const std::vector<std::string>& texts, size_t top_n,
                   const kpef::BatchQueryOptions& options,
                   std::vector<kpef::QueryStats>* stats) {
        if (!Tracing()) return group->FindExpertsBatch(texts, top_n, options, stats);
        const uint64_t t0 = NowNs();
        auto out = group->FindExpertsBatch(texts, top_n, options, stats);
        const uint64_t id = RecordSpan(
            "core.batch", log->next.fetch_add(1), 0, t0, NowNs());
        BatchLog::Entry entry;
        entry.span_id = id;
        for (const std::string& t : texts) {
          const auto it = log->text_index.find(t);
          entry.texts.push_back(it == log->text_index.end() ? UINT32_MAX
                                                            : it->second);
        }
        std::lock_guard<std::mutex> lock(log->mutex);
        log->entries.push_back(std::move(entry));
        return out;
      };
  kpef::serve::ExpertSearchService::LabelFn label = [group](kpef::NodeId id) {
    const auto gen = group->Snapshot();
    const kpef::HeteroGraph& graph = gen->owned_dataset != nullptr
                                         ? gen->owned_dataset->graph
                                         : group->dataset().graph;
    if (id < 0 || static_cast<size_t>(id) >= graph.NumNodes()) {
      return "node-" + std::to_string(id);
    }
    return graph.Label(id);
  };
  kpef::serve::ServiceHooks hooks;
  hooks.info = [group] { return group->Info(); };
  hooks.reload = [group](const std::string& dir) -> kpef::StatusOr<uint64_t> {
    KPEF_RETURN_IF_ERROR(group->Reload(dir));
    return group->generation();
  };
  hooks.sample = [group] { group->SampleMetrics(); };
  if (kpef::IngestCoordinator* ingest = f->ingest.get()) {
    hooks.ingest = [ingest](const kpef::IngestBatch& batch) {
      const uint64_t t0 = NowNs();
      auto result = ingest->Apply(batch);
      RecordSpan("ingest.apply", 0, 0, t0, NowNs());
      return result;
    };
    hooks.ingest_stats = [ingest] { return ingest->Stats(); };
  }
  return std::make_unique<kpef::serve::ExpertSearchService>(
      config, group->Info(), std::move(execute), std::move(label),
      std::move(hooks));
}

HttpServer::Handler MakeHandler(kpef::serve::ExpertSearchService* service,
                                bool traced) {
  if (!traced) {
    return [service](const HttpRequest& request, HttpServer::Responder respond) {
      service->Handle(request, std::move(respond));
    };
  }
  return [service](const HttpRequest& request, HttpServer::Responder respond) {
    if (!Tracing()) {
      service->Handle(request, std::move(respond));
      return;
    }
    uint64_t rid = 0;
    if (const std::string* h = request.FindHeader("x-request-id")) {
      rid = std::strtoull(h->c_str(), nullptr, 10);
    }
    const uint64_t t0 = NowNs();
    service->Handle(request, std::move(respond));
    RecordSpan("serve.handle", rid, rid, t0, NowNs());
  };
}

/// One full set-up: corpus generation, the offline build (pretraining,
/// (k,P)-core sampling, triplet training, PG-Index), and for the serving
/// workloads artifact save/load, the ingest coordinator and server start.
std::unique_ptr<Fixture> SetUp(const Options& options, Kind kind,
                               BatchLog* log) {
  const Scale scale = ScaleFor(options);
  const auto start = std::chrono::steady_clock::now();
  auto f = std::make_unique<Fixture>();
  f->dir = (fs::path(options.work_dir) /
            (options.workload + "-" + std::to_string(options.seed) + "-" +
             std::to_string(::getpid())))
               .string();
  fs::remove_all(f->dir);
  fs::create_directories(f->dir);

  // The corpus is the profile's own (fixed, as a deployment's data is);
  // --seed draws the traffic over it.
  kpef::DatasetConfig dc = kpef::AminerProfile();
  const double factor =
      kind == Kind::kIngest ? scale.ingest_factor : scale.corpus_factor;
  if (factor != 1.0) dc = dc.ScaledCopy(factor, "");
  kpef::Dataset full = kpef::GenerateDataset(dc);
  if (kind == Kind::kIngest) {
    auto split = kpef::MakeDripSplit(full, scale.ingest_holdout);
    if (!split.ok()) {
      std::fprintf(stderr, "drip split: %s\n", split.status().ToString().c_str());
      return nullptr;
    }
    f->dataset = std::make_unique<kpef::Dataset>(std::move(split->base));
    f->tail = std::move(split->tail);
  } else {
    f->dataset = std::make_unique<kpef::Dataset>(std::move(full));
  }
  f->corpus = std::make_unique<kpef::Corpus>(kpef::BuildPaperCorpus(*f->dataset));

  // kpef_cli build: default EngineConfig, retrieval depth from the corpus
  // size, and as many training workers as the host has cores.
  const size_t top_m = std::max<size_t>(50, f->dataset->Papers().size() / 10);
  kpef::EngineConfig build_config;
  build_config.top_m = top_m;
  build_config.trainer.num_threads = HostCores();
  auto built = kpef::ExpertFindingEngine::Build(
      f->dataset.get(), f->corpus.get(), build_config, nullptr, &f->report);
  if (!built.ok()) {
    std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
    return nullptr;
  }
  f->engine = std::move(built).value();
  // kpef_serve: default EngineConfig with kpef_cli's retrieval depth.
  f->serving_config.top_m = top_m;

  if (kind != Kind::kAssign) {
    const kpef::Status saved = f->engine->SaveArtifacts(f->dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
      return nullptr;
    }
    f->engine.reset();
    kpef::EngineGroup::Options group_options;
    group_options.engine = f->serving_config;
    auto group = kpef::EngineGroup::Load(f->dataset.get(), f->corpus.get(),
                                         group_options, f->dir);
    if (!group.ok()) {
      std::fprintf(stderr, "load: %s\n", group.status().ToString().c_str());
      return nullptr;
    }
    f->group = std::move(group).value();
    if (kind == Kind::kIngest) {
      kpef::IngestOptions ingest_options;
      ingest_options.wal_path = (fs::path(f->dir) / "ingest.wal").string();
      auto coordinator = kpef::IngestCoordinator::Create(
          f->group.get(), f->serving_config, std::move(ingest_options));
      if (!coordinator.ok()) {
        std::fprintf(stderr, "ingest: %s\n",
                     coordinator.status().ToString().c_str());
        return nullptr;
      }
      f->ingest = std::move(coordinator).value();
    }
    f->pool = std::make_unique<kpef::ThreadPool>(HostCores());
    kpef::serve::ServiceConfig config;
    config.batcher.pool = f->pool.get();
    config.max_top_n = config.batcher.max_top_n;
    config.reload_dir = f->dir;
    f->service = MakeService(f.get(), config, log);
    f->server = std::make_unique<HttpServer>(
        kpef::serve::HttpServerConfig{},
        MakeHandler(f->service.get(), log != nullptr));
    const kpef::Status started = f->server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
      return nullptr;
    }
  }
  f->setup_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  return f;
}

/// The run's set-up, reported as setup_s (untraced) or as the offline
/// build's per-layer figures (traced).
std::unique_ptr<Fixture> SetUpMeasured(const Options& options, Kind kind,
                                       BatchLog* log, RunResult* result) {
  std::unique_ptr<Fixture> f = SetUp(options, kind, log);
  if (!f) return nullptr;
  const kpef::EngineBuildReport& r = f->report;
  if (options.trace) {
    result->Add("embed.pretrain_s", r.pretrain_seconds, "s");
    result->Add("embed.train_s", r.training.train_seconds, "s");
    result->Add("embed.triples_per_s", r.training.triples_per_sec, "triples/s");
    result->Add("sampling.core_search_s", r.sampling.core_search_seconds, "s");
    result->Add("sampling.projection_build_s",
                r.sampling.projection_build_seconds, "s");
    result->Add("sampling.triples",
                static_cast<double>(r.sampling.triples.size()), "count");
    result->Add("ann.build_s", r.index.build_seconds, "s");
  } else {
    result->Add("setup_s", f->setup_seconds, "s");
  }
  return f;
}

// --- Closed-loop HTTP query load ----------------------------------------

struct Reply {
  uint32_t text = 0;
  int status = 0;
  uint64_t id = 0;
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  std::string body;
};

/// `conns` keep-alive connections, each sending its next request only
/// after the previous one is answered. Connection c cycles through pool
/// entries c, c + conns, c + 2 conns, ..., so no two in-flight requests
/// ever carry the same text.
class QueryLoad {
 public:
  QueryLoad(uint16_t port, const std::vector<std::string>* bodies,
            size_t conns)
      : port_(port), bodies_(bodies), conns_(conns), replies_(conns) {}
  ~QueryLoad() { Stop(); }
  QueryLoad(const QueryLoad&) = delete;
  QueryLoad& operator=(const QueryLoad&) = delete;

  void Start() {
    for (size_t c = 0; c < conns_; ++c) {
      threads_.emplace_back([this, c] { Loop(c); });
    }
  }

  void Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  /// Requests answered so far (any status).
  uint64_t completed() const { return completed_.load(); }

  /// Every reply so far, in completion order.
  std::vector<Reply> Take() {
    std::vector<Reply> all;
    for (auto& per : replies_) {
      for (Reply& r : per) all.push_back(std::move(r));
      per.clear();
    }
    std::sort(all.begin(), all.end(), [](const Reply& a, const Reply& b) {
      return a.recv_ns < b.recv_ns;
    });
    return all;
  }

 private:
  void Loop(size_t c) {
    HttpClient client;
    client.Connect(port_);
    const size_t n = bodies_->size();
    const size_t mine = (n - c + conns_ - 1) / conns_;
    for (uint64_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
      const uint32_t text = static_cast<uint32_t>(c + (i % mine) * conns_);
      const uint64_t rid = ((c + 1) << 40) | (i + 1);
      const uint64_t t0 = NowNs();
      HttpReply r = client.Send("POST", "/v1/find_experts", (*bodies_)[text], rid);
      const uint64_t t1 = NowNs();
      RecordSpan("client.request", rid, 0, t0, t1, rid);
      replies_[c].push_back({text, r.status, rid, t0, t1, std::move(r.body)});
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const uint16_t port_;
  const std::vector<std::string>* bodies_;
  const size_t conns_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> completed_{0};
  std::vector<std::vector<Reply>> replies_;  // one per connection thread
  std::vector<std::thread> threads_;
};

/// Uncounted load before the measured window, so lazy set-up inside the
/// server and engine is done before timing starts.
void WarmUp(uint16_t port, const std::vector<std::string>& bodies,
            size_t conns, const Options& options) {
  QueryLoad warm(port, &bodies, conns);
  warm.Start();
  SleepSeconds(std::min(0.5, options.seconds / 10));
  warm.Stop();
}

std::vector<std::string> QueryBodies(const kpef::QuerySet& queries) {
  std::vector<std::string> bodies;
  for (const kpef::Query& q : queries.queries) {
    std::string body = "{\"query\":";
    AppendQuoted(q.text, &body);
    body.append(",\"n\":").append(std::to_string(kTopN)).append("}");
    bodies.push_back(std::move(body));
  }
  return bodies;
}

struct QueryTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;
  double ap_sum = 0.0;
  /// Parsed answers, aligned with the replies (empty when failed).
  std::vector<std::vector<Scored>> answers;
};

/// Parses and scores replies: a non-200 status, a transport error, an
/// unparsable body or an empty answer counts as failed.
QueryTally TallyReplies(const std::vector<Reply>& replies,
                        const kpef::QuerySet& queries) {
  QueryTally t;
  t.answers.resize(replies.size());
  for (size_t i = 0; i < replies.size(); ++i) {
    const Reply& r = replies[i];
    ++t.attempted;
    if (r.status != 200 || !ParseExperts(r.body, &t.answers[i]) ||
        t.answers[i].empty()) {
      ++t.failed;
      t.answers[i].clear();
      continue;
    }
    t.latency_ms.push_back(static_cast<double>(r.recv_ns - r.send_ns) * 1e-6);
    t.ap_sum += AveragePrecision(t.answers[i],
                                 queries.queries[r.text].ground_truth, kTopN);
  }
  return t;
}

void AddQueryMetrics(const QueryTally& t, double window_s, double map,
                     RunResult* result) {
  const double answered = static_cast<double>(t.attempted - t.failed);
  result->Add("query_rps", answered / window_s, "queries/s");
  result->Add("query_p50_ms", Quantile(t.latency_ms, 0.50), "ms");
  result->AddTail(Quantile(t.latency_ms, 0.95), Quantile(t.latency_ms, 0.99));
  result->Add("expert_map", map, "ratio");
}

/// MAP of `engine`'s top-n answers over every query of the pool, asked
/// in-process in 64-query batches on `pool`.
double PoolMap(kpef::ExpertFindingEngine* engine, const kpef::QuerySet& queries,
               kpef::ThreadPool* pool) {
  double ap_sum = 0.0;
  for (size_t b = 0; b < queries.queries.size(); b += kAssignBatch) {
    const size_t end = std::min(queries.queries.size(), b + kAssignBatch);
    std::vector<std::string> texts;
    for (size_t q = b; q < end; ++q) texts.push_back(queries.queries[q].text);
    const auto answers = engine->FindExpertsBatch(texts, kTopN, nullptr, pool);
    for (size_t q = b; q < end; ++q) {
      std::vector<Scored> scored;
      for (const kpef::ExpertScore& e : answers[q - b]) scored.push_back({e.author, e.score});
      ap_sum += AveragePrecision(scored, queries.queries[q].ground_truth, kTopN);
    }
  }
  return queries.queries.empty() ? 0.0 : ap_sum / static_cast<double>(queries.queries.size());
}

/// Alternates equal windows with span recording off and on under the
/// same load and returns the traced throughput's shortfall, in percent.
/// `count_done` reports operations completed so far.
double TraceOverheadPct(double seconds, const std::function<uint64_t()>& count_done) {
  constexpr int kWindows = 10;
  const double window = std::max(0.1, seconds / kWindows);
  double done[2] = {0.0, 0.0};
  double time[2] = {0.0, 0.0};
  for (int w = 0; w < kWindows; ++w) {
    const bool on = (w % 2) == 1;
    SetTracing(on);
    const uint64_t before = count_done();
    const uint64_t t0 = NowNs();
    SleepSeconds(window);
    done[on] += static_cast<double>(count_done() - before);
    time[on] += static_cast<double>(NowNs() - t0) * 1e-9;
  }
  SetTracing(false);
  TakeSpans();
  if (done[0] == 0.0 || time[1] == 0.0) return 0.0;
  return (1.0 - (done[1] / time[1]) / (done[0] / time[0])) * 100.0;
}

// --- Shared checks ------------------------------------------------------

/// Mean Recall@m of the engine's retrieval against the exact scan over
/// its own embeddings, for up to kRecallQueries texts.
double RetrievalRecall(kpef::ExpertFindingEngine* engine,
                       const std::vector<std::string>& texts) {
  const size_t m = engine->config().top_m;
  std::vector<double> recalls;
  for (size_t i = 0; i < texts.size() && i < kRecallQueries; ++i) {
    const std::vector<kpef::NodeId> papers = engine->RetrievePapers(texts[i], m);
    std::vector<int32_t> rows;
    for (const kpef::NodeId p : papers) {
      rows.push_back(static_cast<int32_t>(engine->dataset().graph.LocalIndex(p)));
    }
    const std::vector<float> q =
        engine->encoder().Encode(engine->corpus().EncodeQuery(texts[i]));
    recalls.push_back(RecallAtM(rows, ExactTopM(engine->embeddings(), q, m)));
  }
  return Mean(recalls);
}

void CheckRecall(double recall, RunResult* result) {
  result->Check(recall >= kRecallFloor,
                "retrieval recall@m " + std::to_string(recall) +
                    " is below the floor " + std::to_string(kRecallFloor));
}

std::vector<std::string> Texts(const kpef::QuerySet& queries) {
  std::vector<std::string> texts;
  for (const kpef::Query& q : queries.queries) texts.push_back(q.text);
  return texts;
}

// --- Per-layer metrics of the serving path ------------------------------

/// Every per-layer metric a workload may leave unexercised, in the order
/// BENCHMARK.json lists them; a layer a workload never calls reads 0.
const std::vector<std::pair<const char*, const char*>>& PerLayerNames() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"serve.handle_ms", "ms"},          {"serve.queue_wait_ms", "ms"},
      {"serve.batch_size", "count"},      {"serve.wire_ms", "ms"},
      {"core.batch_ms", "ms"},            {"embed.encode_ms", "ms"},
      {"ann.search_ms", "ms"},            {"ann.search_batch_ms", "ms"},
      {"ann.dist_comps", "count"},        {"ann.recall_at_m", "ratio"},
      {"ranking.rank_ms", "ms"},          {"ranking.entries_accessed", "count"},
      {"ranking.ta_early_stop_ratio", "ratio"},
      {"embed.pretrain_s", "s"},          {"embed.train_s", "s"},
      {"embed.triples_per_s", "triples/s"},
      {"sampling.core_search_s", "s"},    {"sampling.projection_build_s", "s"},
      {"sampling.triples", "count"},      {"ann.build_s", "s"},
      {"ingest.apply_ms", "ms"},          {"ingest.merges", "count"},
      {"ingest.merge_ms", "ms"},          {"ingest.pending_delta_edges", "count"},
      {"ingest.wal_bytes", "bytes"},      {"ingest.papers_per_s", "papers/s"},
      {"ingest.ack_p50_ms", "ms"},        {"obs.trace_overhead_pct", "%"},
      {"obs.span_share_pct", "%"},
  };
  return names;
}

/// Adds a 0 for every per-layer metric the workload did not report and
/// orders the list as PerLayerNames().
void CompletePerLayer(RunResult* result) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : PerLayerNames()) {
    const auto it = std::find_if(result->metrics.begin(), result->metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    ordered.push_back(it != result->metrics.end() ? *it : Metric{name, 0.0, unit});
  }
  result->metrics = std::move(ordered);
}

/// Engine-side per-query figures (QueryStats) from 200 bodies.
void AddEngineStatsFromBodies(const std::vector<Reply>& replies,
                              RunResult* result) {
  std::vector<double> encode, search, rank, dist, entries, batch_size,
      queue_wait;
  double early = 0.0;
  for (const Reply& r : replies) {
    Json doc;
    if (r.status != 200 || !ParseJson(r.body, &doc)) continue;
    const Json* stats = doc.Get("stats");
    if (stats == nullptr) continue;
    const double enc = stats->NumberOr("encode_ms", 0.0);
    encode.push_back(enc);
    search.push_back(stats->NumberOr("retrieval_ms", 0.0) - enc);
    rank.push_back(stats->NumberOr("ranking_ms", 0.0));
    dist.push_back(stats->NumberOr("distance_computations", 0.0));
    entries.push_back(stats->NumberOr("ranking_entries_accessed", 0.0));
    const Json* ta = stats->Get("ta_early_terminated");
    early += (ta != nullptr && ta->boolean) ? 1.0 : 0.0;
    batch_size.push_back(doc.NumberOr("batch_size", 0.0));
    queue_wait.push_back(doc.NumberOr("queue_wait_ms", 0.0));
  }
  result->Add("embed.encode_ms", Mean(encode), "ms");
  result->Add("ann.search_ms", Mean(search), "ms");
  result->Add("ranking.rank_ms", Mean(rank), "ms");
  result->Add("ann.dist_comps", Mean(dist), "count");
  result->Add("ranking.entries_accessed", Mean(entries), "count");
  result->Add("ranking.ta_early_stop_ratio",
              encode.empty() ? 0.0 : early / static_cast<double>(encode.size()),
              "ratio");
  result->Add("serve.batch_size", Mean(batch_size), "count");
  result->Add("serve.queue_wait_ms", Median(queue_wait), "ms");
}

/// Builds each query request's span tree — client.request with children
/// serve.handle (Handler seam), serve.queue_wait (the response's
/// queue_wait_ms, from the handle start) and core.batch (the
/// BatchExecuteFn call the request rode in) — and reports self times.
void AnalyzeServeSpans(const std::vector<Reply>& replies, BatchLog* log,
                       std::vector<Span>* spans, RunResult* result) {
  std::unordered_map<uint64_t, const Span*> handle_of;
  std::unordered_map<uint64_t, const Span*> by_id;
  for (const Span& s : *spans) {
    by_id[s.id] = &s;
    if (std::string_view(s.name) == "serve.handle") handle_of[s.request] = &s;
  }
  // Batches by text, for linking a request to the call it rode in.
  std::unordered_map<uint32_t, std::vector<const Span*>> batches_of_text;
  std::vector<double> batch_ms;
  {
    std::lock_guard<std::mutex> lock(log->mutex);
    for (const BatchLog::Entry& e : log->entries) {
      const auto it = by_id.find(e.span_id);
      if (it == by_id.end()) continue;
      batch_ms.push_back(it->second->Ms());
      for (const uint32_t t : e.texts) batches_of_text[t].push_back(it->second);
    }
  }
  std::vector<Span> added;
  std::vector<double> handle_ms, wire_ms, share;
  for (const Reply& r : replies) {
    if (r.status != 200) continue;
    Span root;
    root.name = "client.request";
    root.id = r.id;
    root.request = r.id;
    root.start_ns = r.send_ns;
    root.end_ns = r.recv_ns;
    std::vector<Span> children;
    const auto h = handle_of.find(r.id);
    if (h != handle_of.end()) {
      children.push_back(*h->second);
      handle_ms.push_back(h->second->Ms());
      Json doc;
      if (ParseJson(r.body, &doc)) {
        Span queue;
        queue.name = "serve.queue_wait";
        queue.id = NewSpanId();
        queue.parent = r.id;
        queue.request = r.id;
        queue.start_ns = h->second->start_ns;
        queue.end_ns = queue.start_ns + static_cast<uint64_t>(
                                            doc.NumberOr("queue_wait_ms", 0.0) * 1e6);
        children.push_back(queue);
      }
    }
    for (const Span* b : batches_of_text[r.text]) {
      if (b->start_ns >= r.send_ns && b->end_ns <= r.recv_ns) {
        Span call = *b;
        call.id = NewSpanId();
        call.parent = r.id;
        call.request = r.id;
        children.push_back(call);
        break;
      }
    }
    const uint64_t self = SelfNs(root, children);
    const double total = static_cast<double>(root.end_ns - root.start_ns);
    wire_ms.push_back(static_cast<double>(self) * 1e-6);
    if (total > 0) share.push_back((1.0 - static_cast<double>(self) / total) * 100.0);
    for (const Span& c : children) {
      if (std::string_view(c.name) != "serve.handle") added.push_back(c);
    }
  }
  spans->insert(spans->end(), added.begin(), added.end());
  result->Add("serve.handle_ms", Median(handle_ms), "ms");
  result->Add("serve.wire_ms", Median(wire_ms), "ms");
  result->Add("core.batch_ms", Median(batch_ms), "ms");
  result->Add("obs.span_share_pct", Median(share), "%");
}

void WriteTrace(const Options& options, const std::vector<Span>& spans) {
  fs::create_directories(options.out_dir);
  const std::string path =
      (fs::path(options.out_dir) /
       ("trace-" + options.workload + "-seed" + std::to_string(options.seed) +
        ".json"))
          .string();
  if (!WriteSpans(path, spans)) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

}  // namespace

// --- serve_http ---------------------------------------------------------

RunResult RunServeHttp(const Options& options) {
  RunResult result;
  BatchLog log;
  BatchLog* traced_log = options.trace ? &log : nullptr;
  std::unique_ptr<Fixture> f =
      SetUpMeasured(options, Kind::kServe, traced_log, &result);
  if (!f) {
    result.Check(false, "set-up failed");
    return result;
  }
  const kpef::QuerySet queries = kpef::GenerateQueries(
      *f->dataset, ScaleFor(options).serve_pool, options.seed + 17);
  const std::vector<std::string> texts = Texts(queries);
  const std::vector<std::string> bodies = QueryBodies(queries);
  for (uint32_t i = 0; i < texts.size(); ++i) log.text_index.emplace(texts[i], i);
  const uint16_t port = f->server->port();

  WarmUp(port, bodies, kServeConnections, options);
  SetTracing(options.trace);
  QueryLoad load(port, &bodies, kServeConnections);
  const uint64_t t0 = NowNs();
  load.Start();
  SleepSeconds(options.seconds);
  load.Stop();
  const double window_s = static_cast<double>(NowNs() - t0) * 1e-9;
  SetTracing(false);
  const std::vector<Reply> replies = load.Take();
  const QueryTally tally = TallyReplies(replies, queries);
  result.CountOps("queries", tally.attempted, tally.failed);

  const auto gen = f->group->Snapshot();
  const double recall = RetrievalRecall(gen->engine.get(), texts);
  CheckRecall(recall, &result);

  if (options.trace) {
    std::vector<Span> spans = TakeSpans();
    AnalyzeServeSpans(replies, &log, &spans, &result);
    AddEngineStatsFromBodies(replies, &result);
    result.Add("ann.recall_at_m", recall, "ratio");
    WriteTrace(options, spans);
    QueryLoad probe(port, &bodies, kServeConnections);
    probe.Start();
    const double overhead = TraceOverheadPct(std::max(1.0, options.seconds / 2),
                                             [&] { return probe.completed(); });
    probe.Stop();
    result.Add("obs.trace_overhead_pct", overhead, "%");
    CompletePerLayer(&result);
  } else {
    const double answered = static_cast<double>(tally.attempted - tally.failed);
    AddQueryMetrics(tally, window_s, answered > 0 ? tally.ap_sum / answered : 0.0,
                    &result);
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
  }

  // Every 200 body must equal the in-process answer for the same text.
  std::unordered_map<uint32_t, std::vector<Scored>> expected;
  size_t mismatches = 0;
  std::string first_why;
  for (size_t i = 0; i < replies.size(); ++i) {
    if (tally.answers[i].empty()) continue;
    const uint32_t text = replies[i].text;
    auto it = expected.find(text);
    if (it == expected.end()) {
      std::vector<Scored> want;
      for (const kpef::ExpertScore& e : gen->engine->FindExperts(texts[text], kTopN)) {
        want.push_back({e.author, e.score});
      }
      it = expected.emplace(text, std::move(want)).first;
    }
    std::string why;
    if (!SameAnswer(it->second, tally.answers[i], &why)) {
      if (mismatches++ == 0) first_why = why;
    }
  }
  result.Check(mismatches == 0,
               std::to_string(mismatches) +
                   " HTTP answers differ from the in-process answer: " + first_why);
  return result;
}

// --- batch_assign -------------------------------------------------------

RunResult RunBatchAssign(const Options& options) {
  RunResult result;
  std::unique_ptr<Fixture> f =
      SetUpMeasured(options, Kind::kAssign, nullptr, &result);
  if (!f) {
    result.Check(false, "set-up failed");
    return result;
  }
  kpef::ExpertFindingEngine* engine = f->engine.get();
  const Scale scale = ScaleFor(options);
  const kpef::QuerySet queries = kpef::GenerateQueries(
      *f->dataset, scale.assign_batches * kAssignBatch, options.seed + 29);
  const std::vector<std::string> texts = Texts(queries);
  std::vector<std::vector<std::string>> batches;
  for (size_t b = 0; b * kAssignBatch < texts.size(); ++b) {
    batches.emplace_back(texts.begin() + b * kAssignBatch,
                         texts.begin() + std::min(texts.size(), (b + 1) * kAssignBatch));
  }
  kpef::ThreadPool pool(HostCores());

  // One pass over every batch warms the pool and the search arenas.
  for (const auto& batch : batches) engine->FindExpertsBatch(batch, kTopN, nullptr, &pool);

  // Answers of the first call of each batch, for the checks.
  std::vector<std::vector<std::vector<kpef::ExpertScore>>> first(batches.size());
  std::vector<double> call_ms, encode_ms, search_ms, rank_ms, dist, entries,
      replay_batch_ms, share;
  double early = 0.0, stat_queries = 0.0;
  uint64_t attempted = 0, failed = 0;
  double ap_sum = 0.0;
  const size_t m = engine->config().top_m;
  const size_t ef = engine->config().search_ef == 0 ? m : engine->config().search_ef;
  SetTracing(options.trace);
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + static_cast<uint64_t>(options.seconds * 1e9);
  for (uint64_t call = 0; NowNs() < end; ++call) {
    const size_t b = call % batches.size();
    std::vector<kpef::QueryStats> stats;
    const uint64_t c0 = NowNs();
    auto answers = engine->FindExpertsBatch(batches[b], kTopN, &stats, &pool);
    const uint64_t c1 = NowNs();
    RecordSpan("core.batch", call + 1, 0, c0, c1);
    call_ms.push_back(static_cast<double>(c1 - c0) * 1e-6);
    for (size_t q = 0; q < answers.size(); ++q) {
      ++attempted;
      if (answers[q].empty()) {
        ++failed;
        continue;
      }
      std::vector<Scored> scored;
      for (const kpef::ExpertScore& e : answers[q]) scored.push_back({e.author, e.score});
      ap_sum += AveragePrecision(
          scored, queries.queries[b * kAssignBatch + q].ground_truth, kTopN);
    }
    if (first[b].empty()) first[b] = answers;
    if (!options.trace) continue;
    for (const kpef::QueryStats& s : stats) {
      encode_ms.push_back(s.encode_ms);
      search_ms.push_back(s.retrieval_ms - s.encode_ms);
      rank_ms.push_back(s.ranking_ms);
      dist.push_back(static_cast<double>(s.distance_computations));
      entries.push_back(static_cast<double>(s.ranking_entries_accessed));
      early += s.ta_early_terminated ? 1.0 : 0.0;
      stat_queries += 1.0;
    }
    // Replay the call layer by layer through the layers' public
    // functions, with the same pool: encode, PGIndex::SearchBatch, then
    // Eq. 4-5 lists + TA per query.
    const size_t n = batches[b].size();
    const uint64_t r0 = NowNs();
    const uint64_t replay_id = NewSpanId();
    kpef::Matrix encoded(n, engine->encoder().dim());
    kpef::ParallelFor(pool, n, [&](size_t q) {
      const std::vector<float> v =
          engine->encoder().Encode(engine->corpus().EncodeQuery(batches[b][q]));
      std::copy(v.begin(), v.end(), encoded.Row(q).begin());
    });
    const uint64_t r1 = NowNs();
    RecordSpan("embed.encode", call + 1, replay_id, r0, r1);
    const auto found = engine->index()->SearchBatch(encoded, m, ef, nullptr, &pool);
    const uint64_t r2 = NowNs();
    RecordSpan("ann.search_batch", call + 1, replay_id, r1, r2);
    replay_batch_ms.push_back(static_cast<double>(r2 - r1) * 1e-6);
    const std::vector<kpef::NodeId>& papers = engine->dataset().Papers();
    kpef::ParallelFor(pool, n, [&](size_t q) {
      std::vector<kpef::NodeId> top;
      for (const kpef::Neighbor& nb : found[q]) top.push_back(papers[nb.id]);
      const kpef::RankedLists lists = kpef::BuildRankedLists(
          engine->dataset().graph, engine->dataset().ids.write, top);
      kpef::ThresholdTopN(lists, kTopN);
    });
    const uint64_t r3 = NowNs();
    RecordSpan("ranking.rank", call + 1, replay_id, r2, r3);
    RecordSpan("layers.replay", call + 1, 0, r0, r3, replay_id);
    share.push_back(static_cast<double>(r3 - r0) / static_cast<double>(c1 - c0) * 100.0);
  }
  const double window_s = static_cast<double>(NowNs() - t0) * 1e-9;
  SetTracing(false);
  result.CountOps("queries", attempted, failed);

  const double recall = RetrievalRecall(engine, texts);
  CheckRecall(recall, &result);

  if (options.trace) {
    result.Add("core.batch_ms", Median(call_ms), "ms");
    result.Add("embed.encode_ms", Mean(encode_ms), "ms");
    result.Add("ann.search_ms", Mean(search_ms), "ms");
    result.Add("ann.search_batch_ms", Median(replay_batch_ms), "ms");
    result.Add("ann.dist_comps", Mean(dist), "count");
    result.Add("ann.recall_at_m", recall, "ratio");
    result.Add("ranking.rank_ms", Mean(rank_ms), "ms");
    result.Add("ranking.entries_accessed", Mean(entries), "count");
    result.Add("ranking.ta_early_stop_ratio",
               stat_queries > 0 ? early / stat_queries : 0.0, "ratio");
    result.Add("obs.span_share_pct", Median(share), "%");
    WriteTrace(options, TakeSpans());
    // Overhead probe: the same calls, span recording toggled per window.
    std::atomic<uint64_t> done{0};
    std::atomic<bool> stop{false};
    std::thread driver([&] {
      for (uint64_t call = 0; !stop.load(); ++call) {
        const size_t b = call % batches.size();
        const uint64_t c0 = NowNs();
        engine->FindExpertsBatch(batches[b], kTopN, nullptr, &pool);
        RecordSpan("core.batch", call + 1, 0, c0, NowNs());
        done.fetch_add(batches[b].size());
      }
    });
    const double overhead = TraceOverheadPct(
        std::max(1.0, options.seconds / 2), [&] { return done.load(); });
    stop.store(true);
    driver.join();
    result.Add("obs.trace_overhead_pct", overhead, "%");
    CompletePerLayer(&result);
  } else {
    const double answered = static_cast<double>(attempted - failed);
    result.Add("query_rps", answered / window_s, "queries/s");
    // A submission's answer arrives when its batch call returns.
    result.Add("query_p50_ms", Quantile(call_ms, 0.50), "ms");
    result.AddTail(Quantile(call_ms, 0.95), Quantile(call_ms, 0.99));
    result.Add("expert_map", answered > 0 ? ap_sum / answered : 0.0, "ratio");
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
  }

  // Each answer must equal the Eq. 4-5 rescoring of the engine's own
  // RetrievePapers list.
  size_t mismatches = 0;
  std::string first_why;
  for (size_t b = 0; b < batches.size(); ++b) {
    for (size_t q = 0; q < first[b].size(); ++q) {
      const std::vector<kpef::NodeId> papers =
          engine->RetrievePapers(batches[b][q], m);
      const std::vector<Scored> full = RescoreEq45(
          engine->dataset().graph, engine->dataset().ids.write, papers);
      std::vector<Scored> answer;
      for (const kpef::ExpertScore& e : first[b][q]) answer.push_back({e.author, e.score});
      std::string why;
      if (!MatchesRescoring(answer, full, kTopN, &why) && mismatches++ == 0) {
        first_why = why;
      }
    }
  }
  result.Check(mismatches == 0,
               std::to_string(mismatches) +
                   " answers differ from the Eq. 4-5 rescoring: " + first_why);
  return result;
}

// --- ingest_live --------------------------------------------------------

RunResult RunIngestLive(const Options& options) {
  RunResult result;
  BatchLog log;
  BatchLog* traced_log = options.trace ? &log : nullptr;
  std::unique_ptr<Fixture> f =
      SetUpMeasured(options, Kind::kIngest, traced_log, &result);
  if (!f) {
    result.Check(false, "set-up failed");
    return result;
  }
  const size_t base_papers = f->dataset->Papers().size();
  const kpef::QuerySet queries = kpef::GenerateQueries(
      *f->dataset, ScaleFor(options).ingest_pool, options.seed + 41);
  const std::vector<std::string> texts = Texts(queries);
  const std::vector<std::string> bodies = QueryBodies(queries);
  for (uint32_t i = 0; i < texts.size(); ++i) log.text_index.emplace(texts[i], i);

  // Ingest payloads: the held-out tail in arrival order.
  std::vector<std::string> ingest_bodies;
  std::vector<size_t> ingest_sizes;
  for (const auto& batch : kpef::DripBatches(f->tail, kIngestBatch)) {
    std::string body = "{\"papers\":[";
    for (size_t i = 0; i < batch.size(); ++i) {
      const kpef::DripPaper& p = batch[i];
      if (i > 0) body.push_back(',');
      body.append("{\"text\":");
      AppendQuoted(p.text, &body);
      body.append(",\"venue\":");
      AppendQuoted(p.venue, &body);
      const auto list = [&body](const char* key, const std::vector<std::string>& v) {
        body.append(",\"").append(key).append("\":[");
        for (size_t j = 0; j < v.size(); ++j) {
          if (j > 0) body.push_back(',');
          AppendQuoted(v[j], &body);
        }
        body.push_back(']');
      };
      list("authors", p.authors);
      list("topics", p.topics);
      list("cites", p.cites);
      body.push_back('}');
    }
    body.append("]}");
    ingest_bodies.push_back(std::move(body));
    ingest_sizes.push_back(batch.size());
  }
  const uint16_t port = f->server->port();
  WarmUp(port, bodies, kIngestQueryConnections, options);

  SetTracing(options.trace);
  QueryLoad load(port, &bodies, kIngestQueryConnections);
  std::vector<Reply> acks;
  const uint64_t t0 = NowNs();
  load.Start();
  std::thread writer([&] {
    HttpClient client;
    client.Connect(port);
    for (size_t i = 0; i < ingest_bodies.size(); ++i) {
      const uint64_t rid = (uint64_t{100} << 40) | (i + 1);
      const uint64_t s = NowNs();
      HttpReply r = client.Send("POST", "/v1/admin/ingest", ingest_bodies[i], rid);
      const uint64_t e = NowNs();
      RecordSpan("client.ingest", rid, 0, s, e, rid);
      acks.push_back({static_cast<uint32_t>(i), r.status, rid, s, e, std::move(r.body)});
    }
  });
  SleepSeconds(options.seconds);
  writer.join();
  load.Stop();
  const double window_s = static_cast<double>(NowNs() - t0) * 1e-9;
  SetTracing(false);
  const std::vector<Reply> replies = load.Take();
  const QueryTally tally = TallyReplies(replies, queries);
  result.CountOps("queries", tally.attempted, tally.failed);

  uint64_t ingest_failed = 0;
  size_t applied = 0;
  std::vector<double> ack_ms;
  for (const Reply& a : acks) {
    Json doc;
    const bool ok = a.status == 200 && ParseJson(a.body, &doc) &&
                    doc.NumberOr("applied", -1) ==
                        static_cast<double>(ingest_sizes[a.text]);
    if (!ok) {
      ++ingest_failed;
      continue;
    }
    applied += ingest_sizes[a.text];
    ack_ms.push_back(static_cast<double>(a.recv_ns - a.send_ns) * 1e-6);
  }
  result.CountOps("ingest_batches", acks.size(), ingest_failed);
  const double ingest_s =
      acks.empty() ? 0.0
                   : static_cast<double>(acks.back().recv_ns - acks.front().send_ns) * 1e-9;

  // Served state after the tail: paper count, own-paper retrieval, recall.
  HttpClient health;
  Json doc;
  const bool health_ok = health.Connect(port) &&
                         ParseJson(health.Send("GET", "/healthz", "").body, &doc);
  const double served = health_ok ? doc.NumberOr("papers", -1) : -1;
  result.Check(served == static_cast<double>(base_papers + f->tail.size()),
               "served paper count " + std::to_string(served) + " != base " +
                   std::to_string(base_papers) + " + tail " +
                   std::to_string(f->tail.size()));
  const auto gen = f->group->Snapshot();
  kpef::ExpertFindingEngine* engine = gen->engine.get();
  const kpef::Dataset& grown = engine->dataset();
  std::unordered_map<std::string, kpef::NodeId> paper_by_text;
  for (const kpef::NodeId p : grown.Papers()) paper_by_text.emplace(grown.graph.Label(p), p);
  size_t missed = 0;
  for (const kpef::DripPaper& p : f->tail) {
    const auto it = paper_by_text.find(p.text);
    const std::vector<kpef::NodeId> top =
        engine->RetrievePapers(p.text, engine->config().top_m);
    if (it == paper_by_text.end() ||
        std::find(top.begin(), top.end(), it->second) == top.end()) {
      ++missed;
    }
  }
  result.Check(missed == 0, std::to_string(missed) +
                                " ingested papers are not retrieved by their own text");
  const double recall = RetrievalRecall(engine, texts);
  CheckRecall(recall, &result);
  result.Check(tally.failed == 0,
               std::to_string(tally.failed) + " queries failed or came back empty");

  if (options.trace) {
    std::vector<Span> spans = TakeSpans();
    AnalyzeServeSpans(replies, &log, &spans, &result);
    AddEngineStatsFromBodies(replies, &result);
    std::vector<double> apply_ms;
    size_t k = 0;
    for (Span& s : spans) {
      if (std::string_view(s.name) != "ingest.apply") continue;
      apply_ms.push_back(s.Ms());
      if (k < acks.size()) s.parent = s.request = acks[k++].id;
    }
    const kpef::IngestStats stats = f->ingest->Stats();
    const auto snapshot = kpef::obs::MetricsRegistry::Global().Snapshot();
    const auto merge = snapshot.histograms.find("ingest.merge_ms");
    const double merge_mean =
        merge != snapshot.histograms.end() && merge->second.total_count > 0
            ? merge->second.sum / static_cast<double>(merge->second.total_count)
            : 0.0;
    result.Add("ann.recall_at_m", recall, "ratio");
    result.Add("ingest.apply_ms", Median(apply_ms), "ms");
    result.Add("ingest.merges", static_cast<double>(stats.merges), "count");
    result.Add("ingest.merge_ms", merge_mean, "ms");
    result.Add("ingest.pending_delta_edges",
               static_cast<double>(stats.pending_delta_edges), "count");
    result.Add("ingest.wal_bytes", static_cast<double>(stats.wal_bytes), "bytes");
    result.Add("ingest.papers_per_s",
               ingest_s > 0 ? static_cast<double>(applied) / ingest_s : 0.0, "papers/s");
    result.Add("ingest.ack_p50_ms", Median(ack_ms), "ms");
    WriteTrace(options, spans);
    QueryLoad probe(port, &bodies, kIngestQueryConnections);
    probe.Start();
    const double overhead = TraceOverheadPct(std::max(1.0, options.seconds / 2),
                                             [&] { return probe.completed(); });
    probe.Stop();
    result.Add("obs.trace_overhead_pct", overhead, "%");
    CompletePerLayer(&result);
  } else {
    // The whole pool on the grown generation: the replies cover only the
    // part of the pool a part had time for, so their MAP would depend on
    // speed, and a 500-query sample read 0.387-0.426 across seeds.
    AddQueryMetrics(tally, window_s, PoolMap(engine, queries, f->pool.get()), &result);
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
  }
  return result;
}

}  // namespace perfbench

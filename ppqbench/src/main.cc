/// \file main.cc
/// The PPQ-trajectory benchmark: one binary, three workloads.
///
///   ppq_perfbench --workload <porto-1shard|porto-8shard|live-durable>
///                 --seed <n> --seconds <s> --trace <0|1>
///                 [--data-seed <n>] [--dir <scratch>]
///
/// Every workload generates its inputs (the dataset from --data-seed, the
/// request lists from --seed), runs them through the
/// public entry points of core/ and repo/, checks every answer against the
/// brute-force reference (reference.cc) and prints, as its last line, one
/// JSON object {"correct", "attempted", "failed", "metrics"}: the
/// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
/// See ../README.md for what each workload and metric means.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/options.h"
#include "core/ppq_trajectory.h"
#include "core/query_service.h"
#include "core/serialization.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "repo/live_query_service.h"
#include "repo/live_repository.h"
#include "repo/repository_snapshot.h"
#include "repo/sharded_query_service.h"
#include "repo/sharded_repository.h"

namespace ppqbench {
namespace {

namespace fs = std::filesystem;
using ppq::core::Compressor;
using ppq::core::PpqTrajectory;
using ppq::core::QueryBackend;
using ppq::core::QueryResponse;
using ppq::core::SnapshotPtr;

// ---------------------------------------------------------------------------
// Fixed configuration (README "Inputs").
// ---------------------------------------------------------------------------

/// Setup (datagen + request lists + reference answers) repetitions per run;
/// setup_s is their median.
constexpr int kSetupReps = 3;
/// Closed-loop clients and serving workers: 2 + 2 = nproc (4).
constexpr size_t kClients = 2;
constexpr size_t kServeWorkers = 2;
/// Live ingest: a request at tick t is released once ticks <= t + kLag
/// are appended, so every tick a TPQ path reads is already ingested.
constexpr Tick kLag = kTpqLength;
constexpr uint32_t kLiveShards = 4;
constexpr Tick kWatermarkTicks = 32;
constexpr size_t kWalSyncInterval = 32;

/// Every per-layer metric with its unit, in print order.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"datagen.generate_s", "s"},
    {"core.encode_tick_p50_us", "us"},
    {"core.encode_tick_p99_us", "us"},
    {"core.seal_s", "s"},
    {"partition.s", "s"},
    {"partition.partitions_mean", "count"},
    {"predictor.coefficient_bytes", "B"},
    {"quantizer.codewords", "count"},
    {"quantizer.violators", "count"},
    {"quantizer.codebook_bytes", "B"},
    {"quantizer.code_bytes", "B"},
    {"cqc.bytes", "B"},
    {"storage.save_s", "s"},
    {"storage.open_s", "s"},
    {"storage.file_bytes", "B"},
    {"index.candidates_strq", "count"},
    {"index.candidates_window", "count"},
    {"index.candidates_knn", "count"},
    {"index.exact_visit_ratio", "ratio"},
    {"core.queue_us_p50", "us"},
    {"core.queue_us_p99", "us"},
    {"core.scan_share", "ratio"},
    {"core.scan_us_p50_knn", "us"},
    {"core.scan_us_p99_knn", "us"},
    {"core.decode_share", "ratio"},
    {"core.points_decoded_mean", "count"},
    {"core.kernel_share", "ratio"},
    {"repo.merge_share", "ratio"},
    {"repo.tail_share", "ratio"},
    {"repo.append_us_p50", "us"},
    {"repo.append_us_p99", "us"},
    {"repo.seals", "count"},
    {"repo.seal_mean_us", "us"},
    {"repo.roll_s", "s"},
    {"repo.wal_syncs", "count"},
    {"repo.wal_sync_mean_us", "us"},
    {"repo.wal_rotate_mean_us", "us"},
    {"repo.wal_bytes", "B"},
    {"repo.replay_s", "s"},
    {"repo.wal_files_replayed", "count"},
    {"bench.trace_overhead_ingest_ratio", "ratio"},
    {"bench.trace_overhead_serve_ratio", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint64_t data_seed = kDataSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string dir = ".bench_build/run";
};

struct Workload {
  const char* name;
  Mix timed;
  Mix warmup;
  bool by_tick;
  /// Timed rounds run at least this often and until --seconds elapse; the
  /// faster half of them is kept (README "Steadiness"), which holds >= 750
  /// k-NN samples, so the slowest tenth that knn_tail10_us averages holds
  /// >= 75.
  size_t min_rounds;
  /// Shards the workload serves from (ranks its k-NN requests, see
  /// MakeRequestList).
  size_t shards;
};

// Request weights (README "Request lists"). The kinds keep the proportions
// of the repository's mixed request stream (bench_serve --mixed): STRQ 4 :
// window 2 : k-NN 1 : TPQ 1 by request count, STRQ counted as requests
// (three per triple). porto-8shard doubles the window and k-NN weights
// (4 : 4 : 2 : 1), the kinds sharding slows most. The size of a list is
// set by sample count: the kept rounds hold >= 750 k-NN samples. A list
// holds about 750 k-NN requests, so each seed draws many; porto-8shard's
// take ~28 ms each, so its list holds 252 and it keeps 3 of >= 5 rounds.
// Warm-up lists keep the proportions at a smaller scale. live-durable's
// lists are ordered by tick to trail the ingest frontier.
const Workload kWorkloads[] = {
    {"porto-1shard", {1000, 1500, 750, 750}, {120, 180, 90, 90}, false, 2, 1},
    {"porto-8shard", {168, 504, 252, 126}, {16, 48, 24, 12}, false, 5, 8},
    {"live-durable", {1008, 1512, 756, 756}, {84, 126, 63, 63}, true, 2,
     kLiveShards},
};

/// porto-1shard encodes this often (each segment counts with its fastest
/// pass, see SegmentTimes).
constexpr int kEncodePasses = 2;
/// porto-8shard's ingest pool: the caller and one worker. Its ObserveSlice
/// fans every tick out to the pool and waits for it, so each worker more
/// adds a wake-up per tick that a loaded host delays: beside one or two busy
/// processes a pass slowed by 1.6-1.8x with four threads, 1.0-1.2x with two.
constexpr size_t kShardedIngestThreads = 2;
/// porto-8shard's untraced ingest passes.
constexpr int kShardedIngestPasses = 5;
/// live-durable's timed ingest cycles.
constexpr int kLiveCycles = 3;

// ---------------------------------------------------------------------------
// Method and tracing helpers.
// ---------------------------------------------------------------------------

/// PPQ-A in error-bounded mode with the Porto calibration the repository's
/// table benches use (eps_1 = 0.001 deg, gs = 50 m, eps_p = 0.2, eps_s = 0.1).
std::unique_ptr<PpqTrajectory> MakePpqA() {
  ppq::core::PpqOptions o = ppq::core::MakePpqA();
  o.mode = ppq::core::QuantizationMode::kErrorBounded;
  o.tpi.pi.epsilon_s = 0.1;
  return std::make_unique<PpqTrajectory>(o);
}

/// A compressor wrapper that, when \p traced, records from the benchmark's
/// side a span around every ObserveSlice and Seal call into core. Each
/// instance is driven by one shard at a time (the repositories serialise a
/// shard's compressor), so its sample vectors need no lock.
class TimedCompressor final : public Compressor {
 public:
  TimedCompressor(std::unique_ptr<PpqTrajectory> inner, bool traced)
      : inner_(std::move(inner)), traced_(traced) {}
  std::string name() const override { return inner_->name(); }
  void ObserveSlice(const ppq::TimeSlice& slice) override {
    if (!traced_) return inner_->ObserveSlice(slice);
    const auto t0 = Clock::now();
    inner_->ObserveSlice(slice);
    observe_us.push_back(MicrosBetween(t0, Clock::now()));
  }
  void Finish() override { inner_->Finish(); }
  ppq::Result<Point> Reconstruct(TrajId id, Tick t) const override {
    return inner_->Reconstruct(id, t);
  }
  size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n,
                         Point* out) const override {
    return inner_->ReconstructSpan(id, tick_begin, n, out);
  }
  size_t SummaryBytes() const override { return inner_->SummaryBytes(); }
  size_t NumCodewords() const override { return inner_->NumCodewords(); }
  const ppq::index::TemporalPartitionIndex* index() const override {
    return inner_->index();
  }
  double LocalSearchRadius() const override {
    return inner_->LocalSearchRadius();
  }
  std::vector<ppq::core::RecordSpan> RecordSpans() const override {
    return inner_->RecordSpans();
  }
  SnapshotPtr Seal() const override {
    if (!traced_) return inner_->Seal();
    const auto t0 = Clock::now();
    SnapshotPtr s = inner_->Seal();
    seal_us.push_back(MicrosBetween(t0, Clock::now()));
    return s;
  }
  PpqTrajectory& inner() { return *inner_; }

  mutable std::vector<double> observe_us;
  mutable std::vector<double> seal_us;

 private:
  std::unique_ptr<PpqTrajectory> inner_;
  bool traced_;
};

/// Builds one shard's compressor; in traced mode wraps it in a recording
/// TimedCompressor and keeps both pointers for the per-layer readout.
class ShardFactory {
 public:
  explicit ShardFactory(bool traced) : traced_(traced) {}

  std::unique_ptr<Compressor> operator()(uint32_t) {
    auto method = MakePpqA();
    std::lock_guard<std::mutex> lock(mu_);
    methods_.push_back(method.get());
    if (!traced_) return method;
    auto timed = std::make_unique<TimedCompressor>(std::move(method), true);
    timed_.push_back(timed.get());
    return timed;
  }

  /// Valid while the repository that owns the compressors lives.
  const std::vector<PpqTrajectory*>& methods() const { return methods_; }
  const std::vector<TimedCompressor*>& timed() const { return timed_; }

 private:
  bool traced_;
  std::mutex mu_;
  std::vector<PpqTrajectory*> methods_;
  std::vector<TimedCompressor*> timed_;
};

/// Sum (count, total) of every series of one registry histogram family.
struct HistSum {
  double count = 0.0;
  double sum = 0.0;
  HistSum operator-(const HistSum& o) const {
    return {count - o.count, sum - o.sum};
  }
  double Mean() const { return count > 0.0 ? sum / count : 0.0; }
};

HistSum RegistrySum(const std::string& name) {
  HistSum out;
  const auto snap = ppq::obs::Registry::Default().Snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name != name) continue;
    out.count += static_cast<double>(h.snapshot.count);
    out.sum += static_cast<double>(h.snapshot.sum);
  }
  return out;
}

struct DirBytes {
  double total = 0.0;
  double containers = 0.0;  ///< PPQSNAP1 files (+ manifest)
  double wal = 0.0;
  double wal_files = 0.0;
};

DirBytes MeasureDir(const std::string& dir) {
  DirBytes out;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    const double bytes = static_cast<double>(e.file_size());
    const std::string name = e.path().filename().string();
    out.total += bytes;
    if (name.rfind("wal-", 0) == 0) {
      out.wal += bytes;
      out.wal_files += 1.0;
    } else if (name != ppq::repo::kRepositoryLockFileName) {
      out.containers += bytes;
    }
  }
  return out;
}

/// Ingest time of a stream ingested in several passes, one after the
/// other: the stream is cut into segments of kSegmentSlices slices (the
/// final flush and seal are one more segment), each timed in wall time, and
/// each segment counts with its fastest pass. A slow spell of the shared
/// host that hits one pass in one segment does not count (README
/// "Steadiness").
constexpr size_t kSegmentSlices = 20;

class SegmentTimes {
 public:
  /// Time one pass: \p observe gets every slice in order, then \p finish
  /// runs as the last segment.
  void Pass(const std::vector<ppq::TimeSlice>& slices,
            const std::function<void(const ppq::TimeSlice&)>& observe,
            const std::function<void()>& finish) {
    std::vector<double>& pass = passes_.emplace_back();
    auto segment0 = Clock::now();
    const auto cut = [&] {
      const auto now = Clock::now();
      pass.push_back(std::chrono::duration<double>(now - segment0).count());
      segment0 = now;
    };
    for (size_t i = 0; i < slices.size(); ++i) {
      observe(slices[i]);
      if ((i + 1) % kSegmentSlices == 0) cut();
    }
    finish();
    cut();
  }
  size_t passes() const { return passes_.size(); }
  double PassTotal(size_t pass) const {
    double total = 0.0;
    for (double t : passes_[pass]) total += t;
    return total;
  }
  double FastestPass() const {
    const std::vector<double> totals = Totals();
    return *std::min_element(totals.begin(), totals.end());
  }
  double BestOfSegments() const {
    double total = 0.0;
    for (size_t k = 0; k < passes_.front().size(); ++k) {
      double best = passes_.front()[k];
      for (const auto& p : passes_) best = std::min(best, p[k]);
      total += best;
    }
    return total;
  }

 private:
  std::vector<double> Totals() const {
    std::vector<double> totals;
    for (size_t p = 0; p < passes_.size(); ++p) totals.push_back(PassTotal(p));
    return totals;
  }

  std::vector<std::vector<double>> passes_;
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Closed-loop serving.
// ---------------------------------------------------------------------------

struct Round {
  std::vector<QueryResponse> responses;
  std::vector<double> latency_us;
  double wall_s = 0.0;
};

/// Serve \p list through \p backend with \p clients closed-loop clients
/// (the caller is client 0): each client submits its next request only
/// after the previous one resolved. Clients poll their future instead of
/// sleeping on it, so a resolved request is seen at once rather than after
/// the wake-up of an idle vCPU, which on a shared host costs a varying
/// hundreds of microseconds. \p gate, when set, blocks a client (asleep,
/// leaving the CPU to ingest) before it submits a request for tick t: the
/// live ingest frontier.
Round ServeRound(QueryBackend& backend, const std::vector<Request>& list,
                 size_t clients,
                 const std::function<void(Tick)>& gate = nullptr) {
  Round round;
  round.responses.resize(list.size());
  round.latency_us.resize(list.size());
  std::atomic<size_t> next{0};
  const auto client = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= list.size()) return;
      if (gate) gate(list[i].tick);
      const auto t0 = Clock::now();
      std::future<QueryResponse> future = backend.Submit(list[i].query);
      while (future.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
        std::this_thread::yield();
      }
      QueryResponse r = future.get();
      round.latency_us[i] = MicrosBetween(t0, Clock::now());
      round.responses[i] = std::move(r);
    }
  };
  const auto start = Clock::now();
  std::vector<std::thread> others;
  for (size_t c = 1; c < clients; ++c) others.emplace_back(client);
  client();
  for (auto& t : others) t.join();
  round.wall_s = SecondsSince(start);
  return round;
}

// ---------------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------------

class Bench {
 public:
  Bench(Args args, const Workload& w) : args_(std::move(args)), w_(w) {}

  int Run();

 private:
  void Setup();
  void RunPorto1Shard();
  void RunPorto8Shard();
  void RunLiveDurable();
  /// The role of one live-durable cycle.
  enum class CycleKind { kWarmup, kTimed, kTraced };
  /// One ingest/close/reopen cycle of live-durable, serving the warm-up
  /// list (kWarmup) or the timed list beside ingest; returns the reopened
  /// repository, or null when a step failed.
  std::shared_ptr<ppq::repo::LiveRepository> LiveCycle(const std::string& dir,
                                                       CycleKind kind,
                                                       double* radius);
  /// Warm-up pass, then whole timed rounds of the timed list until
  /// --seconds elapse (at least Workload::min_rounds); keeps the faster
  /// half.
  /// \p between_rounds, when set, runs after every timed round, untimed.
  void ServeTimed(QueryBackend& backend, double radius,
                  const std::function<void()>& between_rounds = nullptr);
  /// Check the first answer a reopened backend gives.
  void CheckFirst(const QueryResponse& resp, double radius, const char* what);
  /// The request a reopened backend is timed to answer first: the middle
  /// one of the warm-up list, which is the same on every seed. A request
  /// of the timed list would make reopen_s depend on the seed: a k-NN
  /// request can cost 100 times another.
  const Request& First() const {
    return in_.warmup.requests[in_.warmup.requests.size() / 2];
  }
  void ReadMethods(const std::vector<PpqTrajectory*>& methods);
  void ReadEncodeSpans(const std::vector<TimedCompressor*>& timed);
  void Report();
  /// No operation failed and every answer passed its checks.
  bool Correct() const {
    return tally_.WrongCount() == 0 && tally_.Failed() == 0;
  }

  Args args_;
  const Workload& w_;
  Inputs in_;
  std::vector<ppq::TimeSlice> slices_;
  Tally tally_;
  ServeLog log_;         // kept untraced serve rounds
  ServeLog traced_log_;  // traced serve rounds (--trace 1)
  // live-durable: the timed list served beside ingest, untraced cycles and
  // the traced cycle.
  ServeLog beside_log_, traced_beside_log_;
  std::vector<double> qps_rounds_;  // qps of every kept round
  size_t rounds_run_ = 0;
  std::vector<double> round_walls_;  // untraced rounds, in run order
  std::vector<double> setup_s_, generate_s_, reopen_s_, open_s_;
  SegmentTimes ingest_;  // untraced ingest passes
  double ingest_s_ = 0.0;  // as reported
  double summary_bytes_ = 0.0;
  double peak_rss_mb_ = 0.0;  // when the first timed round ends
  DirBytes disk_;
  // --trace 1: per-layer readouts, and the tracing overhead as the serve
  // wall time per request of traced vs untraced rounds and the ingest time
  // of the traced pass vs the fastest untraced pass.
  Metrics layer_;
  std::vector<double> traced_cost_, untraced_cost_;
  double traced_ingest_s_ = 0.0;
};

void Bench::Setup() {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in_ = MakeInputs(args_.data_seed, args_.seed, w_.timed, w_.warmup,
                     w_.by_tick, w_.shards);
    setup_s_.push_back(in_.setup_s);
    generate_s_.push_back(in_.generate_s);
  }
  for (Tick t = in_.data->MinTick(); t < in_.data->MaxTick(); ++t) {
    ppq::TimeSlice slice = in_.data->SliceAt(t);
    if (!slice.empty()) slices_.push_back(std::move(slice));
  }
}

void Bench::CheckFirst(const QueryResponse& resp, double radius,
                       const char* what) {
  Tally scratch;
  const size_t i = in_.warmup.requests.size() / 2;
  CheckResponses(*in_.raw, {First()}, {in_.warmup.truth[i]},
                 {resp}, {radius, true, false}, &scratch);
  tally_.Op(scratch.WrongCount() == 0 && scratch.Failed() == 0,
            std::string(what) + ": first answer after reopen is wrong");
}

void Bench::ServeTimed(QueryBackend& backend, double radius,
                       const std::function<void()>& between_rounds) {
  const RequestList& warm = in_.warmup;
  const RequestList& list = in_.timed;
  Round w = ServeRound(backend, warm.requests, kClients);
  CheckResponses(*in_.raw, warm.requests, warm.truth, w.responses,
                 {radius, true, false}, &tally_);
  std::vector<Round> untraced;
  const auto start = Clock::now();
  size_t index = 0;
  do {
    const bool traced = args_.trace && index % 2 == 1;
    Round r = ServeRound(backend, list.requests, kClients);
    // Every round is checked; accuracy is counted once, the answers of a
    // sealed backend being the same in every round, and pooled with the
    // accuracy list served after the rounds.
    CheckResponses(*in_.raw, list.requests, list.truth, r.responses,
                   {radius, true, index == 0}, &tally_);
    (traced ? traced_cost_ : untraced_cost_)
        .push_back(r.wall_s / static_cast<double>(list.requests.size()));
    if (traced) {
      traced_log_.Add(list.requests, r.latency_us, r.responses, list.truth,
                      r.wall_s, true);
    } else {
      r.responses.clear();
      untraced.push_back(std::move(r));
    }
    // The later rounds repeat the list, and ingest passes that repeat the
    // first may run between them beside the open backend: the peak is read
    // before those.
    if (index == 0) peak_rss_mb_ = PeakRssMb();
    ++index;
    if (between_rounds) between_rounds();
  } while (index < (args_.trace ? 2 : 1) * w_.min_rounds ||
           SecondsSince(start) < args_.seconds);
  rounds_run_ = index;
  const RequestList& acc = in_.accuracy;
  Round a = ServeRound(backend, acc.requests, kClients);
  CheckResponses(*in_.raw, acc.requests, acc.truth, a.responses,
                 {radius, true, true}, &tally_);
  for (const Round& r : untraced) round_walls_.push_back(r.wall_s);
  // Every round serves the same list, so a slow round is the machine, not
  // the work: keep the faster half (README "Steadiness").
  std::stable_sort(untraced.begin(), untraced.end(),
                   [](const Round& a, const Round& b) {
                     return a.wall_s < b.wall_s;
                   });
  untraced.resize((untraced.size() + 1) / 2);
  for (const Round& r : untraced) {
    log_.Add(list.requests, r.latency_us, {}, list.truth, r.wall_s, false);
    qps_rounds_.push_back(static_cast<double>(list.requests.size()) /
                          r.wall_s);
  }
}

void Bench::ReadMethods(const std::vector<PpqTrajectory*>& methods) {
  double partition_s = 0, partitions = 0, ticks = 0, violators = 0;
  double codewords = 0, coeff = 0, codebook = 0, code = 0, cqc = 0;
  for (const PpqTrajectory* m : methods) {
    partition_s += m->partition_seconds();
    for (const auto& st : m->tick_stats()) {
      partitions += st.partitions;
      violators += static_cast<double>(st.violators);
      ticks += 1.0;
    }
    codewords += static_cast<double>(m->NumCodewords());
    const auto size = m->summary().Size();
    coeff += static_cast<double>(size.coefficient_bytes);
    codebook += static_cast<double>(size.codebook_bytes);
    code += static_cast<double>(size.code_index_bytes);
    cqc += static_cast<double>(size.cqc_bytes);
  }
  layer_.Set("partition.s", partition_s, "s");
  layer_.Set("partition.partitions_mean", ticks > 0 ? partitions / ticks : 0,
             "count");
  layer_.Set("predictor.coefficient_bytes", coeff, "B");
  layer_.Set("quantizer.codewords", codewords, "count");
  layer_.Set("quantizer.violators", violators, "count");
  layer_.Set("quantizer.codebook_bytes", codebook, "B");
  layer_.Set("quantizer.code_bytes", code, "B");
  layer_.Set("cqc.bytes", cqc, "B");
}

void Bench::ReadEncodeSpans(const std::vector<TimedCompressor*>& timed) {
  std::vector<double> observe_us, seal_us;
  for (const TimedCompressor* t : timed) {
    observe_us.insert(observe_us.end(), t->observe_us.begin(),
                      t->observe_us.end());
    seal_us.insert(seal_us.end(), t->seal_us.begin(), t->seal_us.end());
  }
  double seal_total = 0.0;
  for (double us : seal_us) seal_total += us;
  layer_.Set("core.encode_tick_p50_us", Quantile(observe_us, 0.5), "us");
  layer_.Set("core.encode_tick_p99_us", Quantile(observe_us, 0.99), "us");
  layer_.Set("core.seal_s", seal_total / 1e6, "s");
}

// porto-1shard: one compressor, seal, save + reopen a PPQSNAP1 file, serve
// with QueryService.
void Bench::RunPorto1Shard() {
  // kEncodePasses untraced passes, each with a fresh compressor that is
  // freed (with its snapshot) before the next starts: the first before
  // serving, the others after it, so that they sample both ends of the run
  // (README "Steadiness"). A traced run adds one traced pass (spans around
  // every ObserveSlice and Seal) after the first. The last pass before
  // serving is the one saved.
  const auto encode = [&](bool traced) -> SnapshotPtr {
    TimedCompressor method(MakePpqA(), traced);
    SnapshotPtr sealed;
    SegmentTimes traced_times;
    (traced ? traced_times : ingest_)
        .Pass(
            slices_, [&](const ppq::TimeSlice& s) { method.ObserveSlice(s); },
            [&] {
              method.Finish();
              sealed = method.Seal();
            });
    tally_.Op(sealed != nullptr &&
                  sealed->NumTrajectories() == in_.data->size(),
              "seal does not cover every trajectory");
    if (traced && sealed != nullptr) {
      traced_ingest_s_ = traced_times.PassTotal(0);
      ReadEncodeSpans({&method});
      ReadMethods({&method.inner()});
    }
    return sealed;
  };
  SnapshotPtr sealed = encode(false);
  if (args_.trace && sealed != nullptr) {
    sealed.reset();
    sealed = encode(true);
  }
  if (sealed == nullptr) return;
  summary_bytes_ = static_cast<double>(sealed->SummaryBytes());
  const double radius = sealed->LocalSearchRadius();

  const std::string path = args_.dir + "/porto.snap";
  const auto save0 = Clock::now();
  const ppq::Status saved = sealed->Save(path);
  layer_.Set("storage.save_s", SecondsSince(save0), "s");
  tally_.Op(saved.ok(), "save: " + saved.ToString());
  sealed.reset();

  // One cold reopen before serving, and one after every timed round: the
  // fastest counts, so reopen_s samples the whole run.
  const auto reopen = [&]() -> SnapshotPtr {
    const auto r0 = Clock::now();
    auto result = ppq::core::OpenSnapshot(path);
    open_s_.push_back(SecondsSince(r0));
    tally_.Op(result.ok(), "open: " + result.status().ToString());
    if (!result.ok()) return nullptr;
    ppq::core::QueryService service(*result,
                                    {kServeWorkers, in_.data, kCellSize});
    const QueryResponse first =
        service.Submit(First().query).get();
    reopen_s_.push_back(SecondsSince(r0));
    CheckFirst(first, radius, "porto-1shard");
    return *result;
  };
  {
    const SnapshotPtr opened = reopen();
    if (opened == nullptr) return;
    disk_ = MeasureDir(args_.dir);
    ppq::core::QueryService service(opened,
                                    {kServeWorkers, in_.data, kCellSize});
    ServeTimed(service, radius, [&] { reopen(); });
  }
  for (int pass = 1; pass < kEncodePasses; ++pass) encode(false);
  ingest_s_ = ingest_.BestOfSegments();
}

// porto-8shard: hash-shard over 8 shards, SaveAll, cold-open through the
// manifest, serve with ShardedQueryService.
void Bench::RunPorto8Shard() {
  double radius = 0.0;
  const std::string dir = args_.dir + "/repo";
  // kShardedIngestPasses untraced passes give ingest_pts_per_s (best of
  // passes per segment): the first before serving, the others one after
  // each timed round, so that they sample the whole run (README
  // "Steadiness"). A traced run adds one traced pass after the first. The
  // last pass before serving is the one saved.
  const auto ingest = [&](bool traced, bool save) {
    ShardFactory factory(traced);
    ppq::repo::ShardedRepository repo(std::ref(factory),
                                      {8, kShardedIngestThreads});
    std::vector<double> append_us;
    ppq::repo::RepositorySnapshotPtr sealed;
    SegmentTimes traced_times;
    (traced ? traced_times : ingest_)
        .Pass(
            slices_,
            [&](const ppq::TimeSlice& s) {
              const auto s0 = Clock::now();
              repo.ObserveSlice(s);
              if (traced) append_us.push_back(MicrosBetween(s0, Clock::now()));
            },
            [&] {
              repo.Finish();
              sealed = repo.SealAll();
            });
    tally_.Op(sealed->NumTrajectories() == in_.data->size(),
              "SealAll does not cover every trajectory");
    if (!save) return;
    summary_bytes_ = static_cast<double>(sealed->SummaryBytes());
    radius = sealed->shard(0)->LocalSearchRadius();
    if (traced) {
      traced_ingest_s_ = traced_times.PassTotal(0);
      ReadEncodeSpans(factory.timed());
      layer_.Set("repo.append_us_p50", Quantile(append_us, 0.5), "us");
      layer_.Set("repo.append_us_p99", Quantile(append_us, 0.99), "us");
      layer_.Set("repo.seals", static_cast<double>(repo.num_shards()),
                 "count");
      layer_.Set("repo.seal_mean_us",
                 layer_.Get("core.seal_s") * 1e6 / repo.num_shards(), "us");
      ReadMethods(factory.methods());
    }
    sealed.reset();
    const auto save0 = Clock::now();
    const ppq::Status saved = repo.SaveAll(dir);
    layer_.Set("storage.save_s", SecondsSince(save0), "s");
    tally_.Op(saved.ok(), "SaveAll: " + saved.ToString());
  };
  ingest(false, !args_.trace);
  if (args_.trace) ingest(true, true);

  // One cold reopen before serving, and one after every timed round.
  const auto reopen = [&]() -> ppq::repo::RepositorySnapshotPtr {
    const auto r0 = Clock::now();
    auto result = ppq::repo::OpenRepository(dir);
    open_s_.push_back(SecondsSince(r0));
    tally_.Op(result.ok(), "OpenRepository: " + result.status().ToString());
    if (!result.ok()) return nullptr;
    ppq::repo::ShardedQueryService service(
        *result, {kServeWorkers, in_.data, kCellSize});
    const QueryResponse first =
        service.Submit(First().query).get();
    reopen_s_.push_back(SecondsSince(r0));
    CheckFirst(first, radius, "porto-8shard");
    return *result;
  };
  const ppq::repo::RepositorySnapshotPtr opened = reopen();
  if (opened == nullptr) return;
  disk_ = MeasureDir(args_.dir);
  ppq::repo::ShardedQueryService service(opened,
                                         {kServeWorkers, in_.data, kCellSize});
  // The reopens vary by up to 1.5x within a run; one more after each
  // repeated pass samples the run more often for the fastest.
  int repeats = kShardedIngestPasses - 1;
  ServeTimed(service, radius, [&] {
    reopen();
    if (repeats-- > 0) {
      ingest(false, false);
      reopen();
    }
  });
  ingest_s_ = ingest_.BestOfSegments();
}

/// Check that a reopened live repository holds every raw point: ticks at or
/// below a shard's seal cut decode within the Lemma 3 radius, later ticks
/// sit in its tail with their raw positions.
bool HoldsEveryPoint(const ppq::repo::LiveRepository& live,
                     const TrajectoryDataset& data, double radius) {
  const double tol = radius * (1.0 + 1e-9) + 1e-12;
  std::vector<ppq::core::DecodeMemo> memos(live.num_shards());
  std::vector<Point> buf;
  for (const auto& traj : data.trajectories()) {
    const uint32_t s = live.shard_map().ShardOf(traj.id);
    const auto view = live.ShardView(s);
    const Tick cut = view->sealed_through;
    const size_t sealed_n =
        cut < traj.start_tick
            ? 0
            : std::min<size_t>(traj.size(),
                               static_cast<size_t>(cut - traj.start_tick + 1));
    buf.resize(sealed_n);
    if (sealed_n > 0 &&
        view->sealed->ReconstructSpan(traj.id, traj.start_tick, sealed_n,
                                      buf.data(), &memos[s]) != sealed_n) {
      return false;
    }
    for (size_t i = 0; i < sealed_n; ++i) {
      if ((buf[i] - traj.points[i]).Norm() > tol) return false;
    }
    size_t tail_n = 0;
    for (const auto* c = view->tail.get(); c != nullptr; c = c->prev.get()) {
      for (size_t i = 0; i < c->slice.ids.size(); ++i) {
        if (c->slice.ids[i] != traj.id) continue;
        if (!traj.ActiveAt(c->slice.tick) ||
            c->slice.positions[i] != traj.At(c->slice.tick)) {
          return false;
        }
        ++tail_n;
      }
    }
    if (sealed_n + tail_n != traj.size()) return false;
  }
  return true;
}

ppq::repo::LiveRepository::Options LiveOptions() {
  ppq::repo::LiveRepository::Options options;
  options.num_shards = kLiveShards;
  options.num_threads = 1;
  options.watermark_ticks = kWatermarkTicks;
  options.wal_sync_interval = kWalSyncInterval;
  return options;
}

std::shared_ptr<ppq::repo::LiveRepository> Bench::LiveCycle(
    const std::string& dir, CycleKind kind, double* radius) {
  const bool traced = kind == CycleKind::kTraced;
  const RequestList& list =
      kind == CycleKind::kWarmup ? in_.warmup : in_.timed;
  fs::remove_all(dir);
  ShardFactory factory(traced);
  const HistSum seal0 = RegistrySum("ppq_ingest_seal_micros");
  const HistSum sync0 = RegistrySum("ppq_wal_sync_micros");
  const HistSum rotate0 = RegistrySum("ppq_wal_rotate_micros");
  {
    auto opened =
        ppq::repo::LiveRepository::Open(dir, std::ref(factory), LiveOptions());
    tally_.Op(opened.ok(), "live open: " + opened.status().ToString());
    if (!opened.ok()) return nullptr;
    std::shared_ptr<ppq::repo::LiveRepository> live = std::move(*opened);
    // One thread appends tick by tick; one client serves the tick-ordered
    // list, each request released once its tick is kLag ticks behind the
    // frontier. Threads: ingest + client + 1 serving + 1 seal worker.
    Round round;
    std::mutex mu;
    std::condition_variable cv;
    Tick frontier = std::numeric_limits<Tick>::min();
    const auto gate = [&](Tick t) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return frontier >= t + kLag; });
    };
    const auto advance = [&](Tick t) {
      {
        std::lock_guard<std::mutex> lock(mu);
        frontier = t;
      }
      cv.notify_all();
    };
    std::vector<double> append_us;
    // Only timed cycles count into ingest_pts_per_s.
    SegmentTimes other;
    SegmentTimes& times = kind == CycleKind::kTimed ? ingest_ : other;
    {
      ppq::repo::LiveQueryService service(live, {1, in_.data, kCellSize});
      std::thread client(
          [&] { round = ServeRound(service, list.requests, 1, gate); });
      times.Pass(
          slices_,
          [&](const ppq::TimeSlice& slice) {
            const auto s0 = Clock::now();
            const ppq::Status st =
                live->Append(ppq::PointBatch::FromSlice(slice));
            if (traced) append_us.push_back(MicrosBetween(s0, Clock::now()));
            if (!st.ok()) tally_.Op(false, "append: " + st.ToString());
            advance(slice.tick);
          },
          [&] {
            advance(std::numeric_limits<Tick>::max() - kLag);
            const auto r0 = Clock::now();
            live->RollAll();
            live->Quiesce();
            if (traced) layer_.Set("repo.roll_s", SecondsSince(r0), "s");
          });
      client.join();
    }
    tally_.Op(live->DurabilityError().ok(),
              "durability: " + live->DurabilityError().ToString());
    auto sealed = live->SealedSnapshot();
    *radius = sealed->shard(0)->LocalSearchRadius();
    summary_bytes_ = static_cast<double>(sealed->SummaryBytes());
    sealed.reset();
    // Under ingest a triple may straddle a seal: per-request checks only.
    CheckResponses(*in_.raw, list.requests, list.truth, round.responses,
                   {*radius, false, false}, &tally_);
    if (kind == CycleKind::kTimed) {
      beside_log_.Add(list.requests, round.latency_us, {}, list.truth,
                      round.wall_s, false);
    }
    if (traced) {
      traced_beside_log_.Add(list.requests, round.latency_us, round.responses,
                             list.truth, round.wall_s, true);
      traced_ingest_s_ = other.PassTotal(0);
      ReadEncodeSpans(factory.timed());
      ReadMethods(factory.methods());
      layer_.Set("repo.append_us_p50", Quantile(append_us, 0.5), "us");
      layer_.Set("repo.append_us_p99", Quantile(append_us, 0.99), "us");
      const HistSum seal = RegistrySum("ppq_ingest_seal_micros") - seal0;
      const HistSum sync = RegistrySum("ppq_wal_sync_micros") - sync0;
      const HistSum rotate = RegistrySum("ppq_wal_rotate_micros") - rotate0;
      layer_.Set("repo.seals", seal.count, "count");
      layer_.Set("repo.seal_mean_us", seal.Mean(), "us");
      layer_.Set("repo.wal_syncs", sync.count, "count");
      layer_.Set("repo.wal_sync_mean_us", sync.Mean(), "us");
      layer_.Set("repo.wal_rotate_mean_us", rotate.Mean(), "us");
    }
    const auto c0 = Clock::now();
    live.reset();  // drains the seal pool, closes and syncs every WAL
    if (traced) layer_.Set("storage.save_s", SecondsSince(c0), "s");
  }
  const DirBytes closed = MeasureDir(dir);
  if (traced) {
    layer_.Set("repo.wal_bytes", closed.wal, "B");
    layer_.Set("repo.wal_files_replayed", closed.wal_files, "count");
  }

  const HistSum replay0 = RegistrySum("ppq_recovery_replay_micros");
  ShardFactory reopen_factory(false);
  const auto r0 = Clock::now();
  auto reopened =
      ppq::repo::OpenLiveRepository(dir, std::ref(reopen_factory),
                                    LiveOptions());
  open_s_.push_back(SecondsSince(r0));
  tally_.Op(reopened.ok(), "live reopen: " + reopened.status().ToString());
  if (!reopened.ok()) return nullptr;
  std::shared_ptr<ppq::repo::LiveRepository> live = std::move(*reopened);
  {
    ppq::repo::LiveQueryService service(live,
                                        {kServeWorkers, in_.data, kCellSize});
    const QueryResponse first =
        service.Submit(First().query).get();
    reopen_s_.push_back(SecondsSince(r0));
    CheckFirst(first, *radius, "live-durable");
  }
  if (traced) {
    layer_.Set("repo.replay_s",
               (RegistrySum("ppq_recovery_replay_micros") - replay0).sum / 1e6,
               "s");
  }
  tally_.Op(HoldsEveryPoint(*live, *in_.data, *radius),
            "reopened repository lost or moved a point");
  return live;
}

// live-durable: 4 durable shards. Each cycle appends every tick from one
// thread while the tick-ordered list is served behind the frontier, then
// rolls, quiesces, closes and reopens with WAL replay, and checks the
// reopened repository. A warm-up cycle serves the warm-up list, then
// kLiveCycles timed cycles serve the timed list (their requests give the
// p50 latencies); a traced run adds one traced cycle. The last reopened
// repository then serves timed rounds like the porto-* workloads (qps and
// the k-NN latencies).
void Bench::RunLiveDurable() {
  double radius = 0.0;
  std::shared_ptr<ppq::repo::LiveRepository> live;
  std::string dir;
  int cycles = 0;
  const auto cycle = [&](CycleKind kind) {
    if (live != nullptr) {
      live.reset();
      fs::remove_all(dir);
    }
    dir = args_.dir + "/live-" + std::to_string(cycles++);
    live = LiveCycle(dir, kind, &radius);
    return live != nullptr;
  };
  if (!cycle(CycleKind::kWarmup)) return;
  for (int c = 0; c < kLiveCycles; ++c) {
    if (!cycle(CycleKind::kTimed)) return;
  }
  // Seals run on their own thread and land in a different segment in each
  // cycle, so a sum of fastest segments can leave seal work out (it moved
  // by 0.41 of its median over ten seeds). The fastest whole cycle counts.
  ingest_s_ = ingest_.FastestPass();
  if (args_.trace && !cycle(CycleKind::kTraced)) return;
  {
    // The recovered repository is fully sealed, so every check applies.
    ppq::repo::LiveQueryService service(live,
                                        {kServeWorkers, in_.data, kCellSize});
    ServeTimed(service, radius);
  }
  live.reset();
  disk_ = MeasureDir(dir);
}

int Bench::Run() {
  fs::remove_all(args_.dir);
  fs::create_directories(args_.dir);
  Setup();
  const std::string name = w_.name;
  if (name == "porto-1shard") {
    RunPorto1Shard();
  } else if (name == "porto-8shard") {
    RunPorto8Shard();
  } else {
    RunLiveDurable();
  }
  fs::remove_all(args_.dir);
  Report();
  return Correct() ? 0 : 1;
}

void Bench::Report() {
  // Per-kind operation counts and latency summaries, one line each, before
  // the JSON line.
  for (size_t k = 0; k < kNumKinds; ++k) {
    const auto& v = (args_.trace ? traced_log_ : log_).latency_us[k];
    std::printf("[ops] kind=%s attempted=%zu failed=%zu wrong=%zu "
                "kept_samples=%zu mean_us=%.1f p50_us=%.1f p99_us=%.1f\n",
                kKindNames[k], tally_.attempted[k], tally_.failed[k],
                tally_.wrong[k], v.size(), Mean(v), Quantile(v, 0.5),
                Quantile(v, 0.99));
  }
  std::printf("[ops] kind=workload attempted=%zu wrong=%zu\n",
              tally_.ops_attempted, tally_.ops_wrong);
  std::printf("[check] knn_incomplete=%zu of %zu k-NN answers\n",
              tally_.knn_incomplete, tally_.attempted[2]);
  std::printf("[rounds] run=%zu kept=%zu wall_s=", rounds_run_,
              qps_rounds_.size());
  for (double w : round_walls_) std::printf(" %.3f", w);
  std::printf("\n[ingest] pass_s=");
  for (size_t p = 0; p < ingest_.passes(); ++p) {
    std::printf(" %.3f", ingest_.PassTotal(p));
  }
  std::printf("\n[reopen] s=");
  for (double r : reopen_s_) std::printf(" %.3f", r);
  std::printf("\n");
  for (const std::string& e : tally_.errors) {
    std::printf("[error] %s\n", e.c_str());
  }

  const double points = static_cast<double>(in_.points);
  Metrics out;
  if (!args_.trace) {
    const ServeLog& log = log_;
    // live-durable: the p50s are those of the requests served beside
    // ingest, whose answers read the live tail.
    const ServeLog& p50_log = beside_log_.requests > 0 ? beside_log_ : log_;
    out.Set("setup_s", Median(setup_s_), "s");
    out.Set("ingest_pts_per_s", points / ingest_s_, "points/s");
    out.Set("qps", Median(qps_rounds_), "req/s");
    out.Set("strq_p50_us", Quantile(p50_log.latency_us[0], 0.5), "us");
    out.Set("window_p50_us", Quantile(p50_log.latency_us[1], 0.5), "us");
    out.Set("knn_mean_us", Mean(log.latency_us[2]), "us");
    out.Set("knn_tail10_us", TailMean(log.latency_us[2], 0.1), "us");
    out.Set("tpq_p50_us", Quantile(p50_log.latency_us[3], 0.5), "us");
    out.Set("reopen_s", *std::min_element(reopen_s_.begin(), reopen_s_.end()),
            "s");
    out.Set("summary_bytes_per_point", summary_bytes_ / points, "B/point");
    out.Set("disk_bytes_per_point", disk_.total / points, "B/point");
    out.Set("peak_rss_mb", peak_rss_mb_, "MB");
    const double tp = static_cast<double>(tally_.approx_tp);
    const double denom = 2.0 * tp + static_cast<double>(tally_.approx_fp) +
                         static_cast<double>(tally_.approx_fn);
    out.Set("approx_f1", denom > 0 ? 2.0 * tp / denom : 0.0, "ratio");
    out.Set("knn_recall",
            tally_.recall_n ? tally_.recall_sum / double(tally_.recall_n) : 0,
            "ratio");
    out.Set("tpq_dev_m",
            tally_.dev_n
                ? tally_.dev_sum / double(tally_.dev_n) * kMetersPerDegree
                : 0,
            "m");
  } else {
    const ServeLog& log = traced_log_;
    const auto share = [](const ServeLog& l, ppq::core::ServeStage s) {
      return l.latency_sum_us > 0
                 ? l.stage_us[static_cast<size_t>(s)] / l.latency_sum_us
                 : 0.0;
    };
    const auto per_kind = [&](size_t k) {
      const double n = static_cast<double>(log.latency_us[k].size());
      return n > 0 ? log.candidates[k] / n : 0.0;
    };
    size_t served = 0;
    for (size_t k = 0; k < kNumKinds; ++k) served += log.latency_us[k].size();
    layer_.Set("datagen.generate_s", Median(generate_s_), "s");
    layer_.Set("storage.open_s", Median(open_s_), "s");
    layer_.Set("storage.file_bytes", disk_.containers, "B");
    layer_.Set("index.candidates_strq", per_kind(0), "count");
    layer_.Set("index.candidates_window", per_kind(1), "count");
    layer_.Set("index.candidates_knn", per_kind(2), "count");
    layer_.Set("index.exact_visit_ratio",
               log.exact_strq_active > 0
                   ? log.exact_strq_visited / log.exact_strq_active
                   : 0.0,
               "ratio");
    layer_.Set("core.queue_us_p50", Quantile(log.queue_us, 0.5), "us");
    layer_.Set("core.queue_us_p99", Quantile(log.queue_us, 0.99), "us");
    layer_.Set("core.scan_share", share(log, ppq::core::ServeStage::kScan),
               "ratio");
    layer_.Set("core.scan_us_p50_knn", Quantile(log.knn_scan_us, 0.5), "us");
    layer_.Set("core.scan_us_p99_knn", Quantile(log.knn_scan_us, 0.99), "us");
    layer_.Set("core.decode_share", share(log, ppq::core::ServeStage::kDecode),
               "ratio");
    layer_.Set("core.points_decoded_mean",
               served ? log.points_decoded / static_cast<double>(served) : 0.0,
               "count");
    layer_.Set("core.kernel_share", share(log, ppq::core::ServeStage::kKernel),
               "ratio");
    layer_.Set("repo.merge_share", share(log, ppq::core::ServeStage::kMerge),
               "ratio");
    // The tail only holds points while ingest runs: on live-durable its
    // share is read from the traced cycle's requests served beside ingest.
    layer_.Set("repo.tail_share",
               share(traced_beside_log_.requests > 0 ? traced_beside_log_ : log,
                     ppq::core::ServeStage::kTail),
               "ratio");
    const double traced = Median(traced_cost_);
    const double untraced = Median(untraced_cost_);
    layer_.Set("bench.trace_overhead_serve_ratio",
               untraced > 0 ? traced / untraced : 0.0, "ratio");
    layer_.Set("bench.trace_overhead_ingest_ratio",
               traced_ingest_s_ / ingest_.FastestPass(), "ratio");
    // Every per-layer metric is printed on every workload, in one order; a
    // layer the workload does not run reads 0 (README "Per-layer metrics").
    for (const auto& [name, unit] : kLayerMetrics) {
      out.Set(name, layer_.Get(name), unit);
    }
  }
  const bool correct = Correct();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", tally_.Attempted(), tally_.Failed(),
      out.Json().c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--data-seed") {
      args->data_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace ppqbench

int main(int argc, char** argv) {
  ppqbench::Args args;
  if (!ppqbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--data-seed <n>] [--dir <scratch dir>]\n",
                 argv[0]);
    return 2;
  }
  for (const auto& w : ppqbench::kWorkloads) {
    if (args.workload == w.name) return ppqbench::Bench(args, w).Run();
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}

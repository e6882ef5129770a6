#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/query_types.h"

/// \file bench.h
/// Shared vocabulary of the PPQ-trajectory benchmark: the generated inputs
/// (dataset + request lists), the brute-force reference answers, the
/// checker tally, the per-kind latency samples and the metric sink that
/// becomes the one JSON line a run prints.

namespace ppqbench {

using ppq::Point;
using ppq::Tick;
using ppq::TrajectoryDataset;
using ppq::TrajId;

// ---------------------------------------------------------------------------
// Fixed input make-up (README "Inputs").
// ---------------------------------------------------------------------------

inline constexpr int kTrajectories = 1500;
/// Default datagen seed (README "Seeds"): the dataset the runs are gated on.
inline constexpr uint64_t kDataSeed = 42;
/// Seed of the warm-up request list, the same on every --seed.
inline constexpr uint64_t kWarmupSeed = 0xA5A5A5A5ull;
inline constexpr Tick kHorizon = 400;
inline constexpr int kMinLength = 30;
inline constexpr int kMaxLength = 350;
inline constexpr size_t kKnnK = 8;
inline constexpr int kTpqLength = 8;
/// STRQ evaluation cell gc (degrees), the services' default.
inline constexpr double kCellSize = 0.001;
/// Degrees to metres, the equirectangular scale the paper's deviations use.
inline constexpr double kMetersPerDegree = 111320.0;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Kind index used by every per-kind table (STRQ, window, k-NN, TPQ).
inline constexpr size_t kNumKinds = 4;
inline constexpr const char* kKindNames[kNumKinds] = {"strq", "window", "knn",
                                                      "tpq"};

/// \brief One request of a list plus what the checker needs to group it.
struct Request {
  ppq::core::QueryRequest query;
  size_t kind = 0;  ///< index into kKindNames
  ppq::core::StrqMode mode = ppq::core::StrqMode::kExact;
  Tick tick = 0;
  /// STRQ requests come in (approximate, local-search, exact) triples on
  /// one (x, y, t): this is the index of the triple's first request.
  size_t triple = 0;
};

/// \brief Request counts per kind in one list.
struct Mix {
  size_t strq_triples = 0;  ///< each triple is three requests
  size_t window = 0;
  size_t knn = 0;
  size_t tpq = 0;
  size_t Total() const { return 3 * strq_triples + window + knn + tpq; }
};

/// The accuracy list, the same size on every workload: approx_f1 and
/// tpq_dev_m pool it with the first timed round, so that a workload whose
/// timed list is short (porto-8shard serves 168 STRQ triples) still
/// measures them over enough queries.
inline constexpr Mix kAccuracyMix = {1000, 0, 0, 750};

/// \brief The brute-force answer to one request, computed from the raw
/// points alone.
struct Truth {
  /// Ids whose raw point at the tick lies in the cell / window (sorted).
  std::vector<TrajId> ids;
  /// k-NN: the true k nearest by raw position, ordered by (distance, id).
  std::vector<TrajId> nearest;
  /// Trajectories active at the tick.
  size_t active = 0;
};

/// \brief Raw points grouped by tick, built from the trajectories without
/// going through the program's own per-tick index.
class RawIndex {
 public:
  explicit RawIndex(const TrajectoryDataset& data);
  struct Entry {
    TrajId id;
    Point p;
  };
  const std::vector<Entry>& At(Tick t) const;
  /// Raw position of (id, t); false when the trajectory is not active.
  bool PointOf(TrajId id, Tick t, Point* out) const;
  /// Ticks the trajectory covers from t on (0 when inactive at t).
  size_t RemainingFrom(TrajId id, Tick t) const;

 private:
  const TrajectoryDataset* data_;
  std::vector<std::vector<Entry>> by_tick_;
};

/// \brief A request list with its reference answers (truth[i] answers
/// requests[i]).
struct RequestList {
  std::vector<Request> requests;
  std::vector<Truth> truth;
};

/// Draw a request list of \p mix from \p seed over \p raw and compute its
/// reference answers. \p by_tick orders it by tick (lists that trail an
/// ingest frontier); otherwise the kinds are shuffled. k-NN requests are
/// drawn by the density of their neighbourhood at the scale one of
/// \p shards hash shards sees (README "Request lists").
RequestList MakeRequestList(const RawIndex& raw, const Mix& mix, uint64_t seed,
                            bool by_tick, size_t shards);

/// \brief Generated inputs of one run: the dataset, the warm-up list and
/// the timed list every timed round serves.
struct Inputs {
  std::shared_ptr<const TrajectoryDataset> data;
  std::unique_ptr<RawIndex> raw;
  size_t points = 0;
  RequestList warmup;
  RequestList timed;
  /// Served once, untimed, for approx_f1 and tpq_dev_m (kAccuracyMix).
  RequestList accuracy;
  double generate_s = 0.0;  ///< datagen alone
  double setup_s = 0.0;     ///< datagen + request lists + reference answers
};

/// Generate the dataset from \p data_seed, the timed and accuracy lists from
/// \p seed and the warm-up list from kWarmupSeed, with their reference
/// answers.
Inputs MakeInputs(uint64_t data_seed, uint64_t seed, const Mix& timed_mix,
                  const Mix& warmup_mix, bool by_tick, size_t shards);

// ---------------------------------------------------------------------------
// Checker.
// ---------------------------------------------------------------------------

/// \brief Per-run tally of checked operations and the accuracy measures
/// computed from the same truth.
struct Tally {
  size_t attempted[kNumKinds] = {};
  size_t failed[kNumKinds] = {};  ///< non-OK status: the request did not run
  size_t wrong[kNumKinds] = {};   ///< ran, but the answer broke a check
  /// Whole-workload operations (encode, seal, save, open, recovery check);
  /// one that returns an error or breaks a check counts as wrong.
  size_t ops_attempted = 0;
  size_t ops_wrong = 0;
  /// k-NN answers that leave out a trajectory nearer than the last one
  /// returned by more than the Lemma 3 radius (reported, not wrong).
  size_t knn_incomplete = 0;
  // approx_f1 over every approximate-mode STRQ (pooled).
  size_t approx_tp = 0, approx_fp = 0, approx_fn = 0;
  // knn_recall, averaged over k-NN answers.
  double recall_sum = 0.0;
  size_t recall_n = 0;
  // tpq_dev_m: mean |path point - raw point|, degrees.
  double dev_sum = 0.0;
  size_t dev_n = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions

  void Wrong(size_t kind, const std::string& what);
  void Op(bool ok, const std::string& what);
  size_t Attempted() const;
  size_t Failed() const;
  size_t WrongCount() const;
};

/// How strictly a response can be checked where it was served from.
struct CheckContext {
  /// Lemma 3 bound of the served summary (degrees).
  double radius = 0.0;
  /// Whether every point the request touches is answered by a sealed
  /// summary: then approximate ⊆ local-search ⊇ exact must hold within a
  /// triple. Under live ingest a triple may straddle a seal, so only the
  /// per-request checks apply.
  bool sealed = true;
  /// Count the answer into approx_f1 / knn_recall / tpq_dev_m.
  bool accuracy = true;
};

/// Check every response of a served list against the truth (per-request
/// checks, then the triple subset checks). responses[i] answers
/// requests[i].
void CheckResponses(const RawIndex& raw, const std::vector<Request>& requests,
                    const std::vector<Truth>& truth,
                    const std::vector<ppq::core::QueryResponse>& responses,
                    const CheckContext& context, Tally* tally);

// ---------------------------------------------------------------------------
// Samples and metrics.
// ---------------------------------------------------------------------------

/// Quantile of \p v by linear interpolation between order statistics;
/// 0 for an empty vector.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// Mean of the slowest \p share of \p v (at least one value); 0 if empty.
double TailMean(std::vector<double> v, double share);
double Mean(const std::vector<double>& v);

/// \brief Submit-to-resolve latency samples per kind plus the response
/// stats the traced run aggregates.
struct ServeLog {
  std::vector<double> latency_us[kNumKinds];
  size_t requests = 0;
  double wall_s = 0.0;
  // Traced: sums over responses of QueryStats fields.
  std::vector<double> queue_us;
  std::vector<double> knn_scan_us;
  double stage_us[ppq::core::kNumServeStages] = {};
  double latency_sum_us = 0.0;
  double points_decoded = 0.0;
  double candidates[kNumKinds] = {};
  double exact_strq_visited = 0.0;
  double exact_strq_active = 0.0;

  /// Fold one round into this log; \p with_stats adds the response stats.
  void Add(const std::vector<Request>& requests,
           const std::vector<double>& latency_us,
           const std::vector<ppq::core::QueryResponse>& responses,
           const std::vector<Truth>& truth, double wall_s, bool with_stats);
};

/// \brief Named metrics in print order, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The value of \p name, or 0 when it was never set.
  double Get(const std::string& name) const;
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace ppqbench

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <random>
#include <utility>

#include "bench.h"
#include "datagen/generator.h"

/// \file reference.cc
/// Input generation and the reference checker. The checker never calls
/// into the program: every truth below is a brute-force scan of the raw
/// points of one tick, and every property check (exact equality, the
/// approximate ⊆ local-search ⊇ exact chain, the Lemma 3 deviation bound,
/// k-NN shape and order) is evaluated on those raw points.

namespace ppqbench {

using ppq::core::KnnRequest;
using ppq::core::QueryRequest;
using ppq::core::QueryResponse;
using ppq::core::StrqMode;
using ppq::core::StrqRequest;
using ppq::core::TpqRequest;
using ppq::core::WindowRequest;

// ---------------------------------------------------------------------------
// RawIndex
// ---------------------------------------------------------------------------

RawIndex::RawIndex(const TrajectoryDataset& data) : data_(&data) {
  Tick hi = 0;
  for (const auto& t : data.trajectories()) hi = std::max(hi, t.end_tick());
  by_tick_.resize(static_cast<size_t>(hi));
  for (const auto& traj : data.trajectories()) {
    for (size_t i = 0; i < traj.points.size(); ++i) {
      by_tick_[static_cast<size_t>(traj.start_tick) + i].push_back(
          {traj.id, traj.points[i]});
    }
  }
}

const std::vector<RawIndex::Entry>& RawIndex::At(Tick t) const {
  static const std::vector<Entry> kEmpty;
  if (t < 0 || static_cast<size_t>(t) >= by_tick_.size()) return kEmpty;
  return by_tick_[static_cast<size_t>(t)];
}

bool RawIndex::PointOf(TrajId id, Tick t, Point* out) const {
  if (id < 0 || static_cast<size_t>(id) >= data_->size()) return false;
  const ppq::Trajectory& traj = (*data_)[static_cast<size_t>(id)];
  if (!traj.ActiveAt(t)) return false;
  *out = traj.At(t);
  return true;
}

size_t RawIndex::RemainingFrom(TrajId id, Tick t) const {
  if (id < 0 || static_cast<size_t>(id) >= data_->size()) return 0;
  const ppq::Trajectory& traj = (*data_)[static_cast<size_t>(id)];
  if (!traj.ActiveAt(t)) return 0;
  return static_cast<size_t>(traj.end_tick() - t);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

namespace {

struct Cell {
  double min_x, min_y, max_x, max_y;
  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x < max_x && p.y >= min_y && p.y < max_y;
  }
};

/// The STRQ grid cell of a query point: [k*gc, (k+1)*gc) per axis.
Cell CellOf(const Point& p) {
  const double cx = std::floor(p.x / kCellSize);
  const double cy = std::floor(p.y / kCellSize);
  return {cx * kCellSize, cy * kCellSize, (cx + 1) * kCellSize,
          (cy + 1) * kCellSize};
}

double Dist(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Draws query anchors: a tick, a random trajectory active at it, that
/// trajectory's raw point plus up to ~55 m of jitter — so queries land
/// where the data is, as a user's would. Ticks are stratified: the j-th of
/// n anchors falls in the j-th of n equal slices of the horizon, so every
/// seed puts the same share of queries at the sparse start and end.
class AnchorSampler {
 public:
  AnchorSampler(const RawIndex& raw, uint64_t seed) : raw_(raw), rng_(seed) {}

  std::pair<Point, Tick> Next(size_t j, size_t n) {
    const Tick t = NextTick(j, n);
    return {PointAt(t), t};
  }

  /// The j-th of n stratified ticks, moved on to the next non-empty one.
  Tick NextTick(size_t j, size_t n) {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const double span = static_cast<double>(kHorizon - kTpqLength);
    Tick t = static_cast<Tick>((static_cast<double>(j) + unit(rng_)) * span /
                               static_cast<double>(n));
    while (raw_.At(t).empty()) t = (t + 1) % static_cast<Tick>(span);
    return t;
  }

  /// A random raw point of non-empty tick \p t, jittered.
  Point PointAt(Tick t) {
    std::uniform_real_distribution<double> jitter(-0.0005, 0.0005);
    const auto& at = raw_.At(t);
    std::uniform_int_distribution<size_t> pick(0, at.size() - 1);
    const Point p = at[pick(rng_)].p;
    return Point(p.x + jitter(rng_), p.y + jitter(rng_));
  }

  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }
  std::mt19937_64& rng() { return rng_; }

 private:
  const RawIndex& raw_;
  std::mt19937_64 rng_;
};

/// Candidate points ranked per k-NN request (MakeList).
constexpr size_t kKnnCandidates = 4;

/// Raw distance from \p q to its \p k-th nearest point at tick \p t (to
/// the farthest when fewer are active).
double KthDistance(const RawIndex& raw, const Point& q, Tick t, size_t k) {
  std::vector<double> d;
  for (const auto& e : raw.At(t)) d.push_back(Dist(e.p, q));
  const auto kth = d.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(k, d.size()) - 1);
  std::nth_element(d.begin(), kth, d.end());
  return *kth;
}

/// Builds one request list: STRQ triples stay adjacent, every other
/// request is its own unit, and the units are shuffled (or ordered by
/// tick, for lists that must trail an ingest frontier).
std::vector<Request> MakeList(const RawIndex& raw, const Mix& mix,
                              uint64_t seed, bool by_tick, size_t shards) {
  AnchorSampler sampler(raw, seed);
  std::vector<std::vector<Request>> units;
  for (size_t i = 0; i < mix.strq_triples; ++i) {
    const auto [p, t] = sampler.Next(i, mix.strq_triples);
    std::vector<Request> unit;
    for (StrqMode mode : {StrqMode::kApproximate, StrqMode::kLocalSearch,
                          StrqMode::kExact}) {
      Request r;
      r.query = StrqRequest{{p, t}, mode};
      r.kind = 0;
      r.mode = mode;
      r.tick = t;
      unit.push_back(r);
    }
    units.push_back(std::move(unit));
  }
  for (size_t i = 0; i < mix.window; ++i) {
    const auto [p, t] = sampler.Next(i, mix.window);
    // Half-sides of 150-400 m: a few cells to a neighbourhood.
    const double hx = sampler.Uniform(150.0, 400.0) / kMetersPerDegree;
    const double hy = sampler.Uniform(150.0, 400.0) / kMetersPerDegree;
    Request r;
    r.query = WindowRequest{
        {{p.x - hx, p.y - hy, p.x + hx, p.y + hy}, t}, StrqMode::kExact};
    r.kind = 1;
    r.tick = t;
    units.push_back({r});
  }
  // One k-NN request can cost 100x another: the ring search widens until
  // each shard holds k candidates, so the tick (how many trajectories are
  // active) and the density around the point set the cost. Ticks are
  // stratified as for every kind. Within its tick, a request takes the
  // point of a given rank among kKnnCandidates, ranked by the raw distance
  // of their (k x shards)-th neighbour, and the ranks are dealt evenly over
  // the list (a Latin hypercube), so every seed's list holds the same mix of
  // near and far neighbourhoods.
  std::vector<size_t> ranks(mix.knn);
  for (size_t i = 0; i < mix.knn; ++i) ranks[i] = i % kKnnCandidates;
  std::shuffle(ranks.begin(), ranks.end(), sampler.rng());
  std::vector<std::pair<double, Point>> candidates;
  for (size_t i = 0; i < mix.knn; ++i) {
    const Tick t = sampler.NextTick(i, mix.knn);
    candidates.clear();
    for (size_t c = 0; c < kKnnCandidates; ++c) {
      const Point p = sampler.PointAt(t);
      candidates.emplace_back(KthDistance(raw, p, t, kKnnK * shards), p);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    const Point p = candidates[ranks[i]].second;
    Request r;
    r.query = KnnRequest{{p, t}, kKnnK};
    r.kind = 2;
    r.tick = t;
    units.push_back({r});
  }
  for (size_t i = 0; i < mix.tpq; ++i) {
    const auto [p, t] = sampler.Next(i, mix.tpq);
    Request r;
    r.query = TpqRequest{{p, t}, kTpqLength, StrqMode::kExact};
    r.kind = 3;
    r.tick = t;
    units.push_back({r});
  }
  std::shuffle(units.begin(), units.end(), sampler.rng());
  if (by_tick) {
    std::stable_sort(units.begin(), units.end(),
                     [](const auto& a, const auto& b) {
                       return a.front().tick < b.front().tick;
                     });
  }
  std::vector<Request> list;
  list.reserve(mix.Total());
  for (auto& unit : units) {
    const size_t first = list.size();
    for (Request& r : unit) {
      r.triple = first;
      list.push_back(std::move(r));
    }
  }
  return list;
}

/// Brute-force reference answer of one request.
Truth ComputeTruth(const RawIndex& raw, const Request& request) {
  Truth truth;
  const auto& at = raw.At(request.tick);
  truth.active = at.size();
  std::visit(
      ppq::core::Overloaded{
          [&](const StrqRequest& r) {
            const Cell cell = CellOf(r.query.position);
            for (const auto& e : at) {
              if (cell.Contains(e.p)) truth.ids.push_back(e.id);
            }
          },
          [&](const WindowRequest& r) {
            for (const auto& e : at) {
              if (r.window.window.Contains(e.p)) truth.ids.push_back(e.id);
            }
          },
          [&](const KnnRequest& r) {
            std::vector<std::pair<double, TrajId>> ranked;
            ranked.reserve(at.size());
            for (const auto& e : at) {
              ranked.emplace_back(Dist(e.p, r.query.position), e.id);
            }
            std::sort(ranked.begin(), ranked.end());
            for (size_t i = 0; i < ranked.size() && i < r.k; ++i) {
              truth.nearest.push_back(ranked[i].second);
            }
          },
          [&](const TpqRequest& r) {
            const Cell cell = CellOf(r.query.position);
            for (const auto& e : at) {
              if (cell.Contains(e.p)) truth.ids.push_back(e.id);
            }
          },
      },
      request.query);
  std::sort(truth.ids.begin(), truth.ids.end());
  return truth;
}

}  // namespace

Inputs MakeInputs(uint64_t data_seed, uint64_t seed, const Mix& timed_mix,
                  const Mix& warmup_mix, bool by_tick, size_t shards) {
  const auto start = Clock::now();
  Inputs in;
  ppq::datagen::GeneratorOptions gen;
  gen.num_trajectories = kTrajectories;
  gen.horizon = kHorizon;
  gen.min_length = kMinLength;
  gen.max_length = kMaxLength;
  gen.seed = data_seed;
  in.data = std::make_shared<const TrajectoryDataset>(
      ppq::datagen::PortoLikeGenerator(gen).Generate());
  in.generate_s = SecondsSince(start);
  in.points = in.data->TotalPoints();
  in.raw = std::make_unique<RawIndex>(*in.data);
  const uint64_t list_seed = seed * 0x9E3779B97F4A7C15ull + 0x5EEDu;
  in.timed =
      MakeRequestList(*in.raw, timed_mix, list_seed, by_tick, shards);
  in.accuracy = MakeRequestList(*in.raw, kAccuracyMix, list_seed + 1,
                                by_tick, shards);
  // The warm-up list is the same on every seed: reopen_s is timed to one
  // of its requests (Bench::First in main.cc).
  in.warmup =
      MakeRequestList(*in.raw, warmup_mix, kWarmupSeed, by_tick, shards);
  in.setup_s = SecondsSince(start);
  return in;
}

RequestList MakeRequestList(const RawIndex& raw, const Mix& mix, uint64_t seed,
                            bool by_tick, size_t shards) {
  RequestList list;
  list.requests = MakeList(raw, mix, seed, by_tick, shards);
  list.truth.reserve(list.requests.size());
  for (const Request& r : list.requests) {
    list.truth.push_back(ComputeTruth(raw, r));
  }
  return list;
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

void Tally::Wrong(size_t kind, const std::string& what) {
  ++wrong[kind];
  if (errors.size() < 8) errors.push_back(std::string(kKindNames[kind]) + ": " + what);
}

void Tally::Op(bool ok, const std::string& what) {
  ++ops_attempted;
  if (!ok) {
    ++ops_wrong;
    if (errors.size() < 8) errors.push_back(what);
  }
}

size_t Tally::Attempted() const {
  size_t n = ops_attempted;
  for (size_t k = 0; k < kNumKinds; ++k) n += attempted[k];
  return n;
}

size_t Tally::Failed() const {
  size_t n = 0;
  for (size_t k = 0; k < kNumKinds; ++k) n += failed[k];
  return n;
}

size_t Tally::WrongCount() const {
  size_t n = ops_wrong;
  for (size_t k = 0; k < kNumKinds; ++k) n += wrong[k];
  return n;
}

namespace {

bool StrictlyAscending(const std::vector<TrajId>& ids) {
  for (size_t i = 1; i < ids.size(); ++i) {
    if (!(ids[i - 1] < ids[i])) return false;
  }
  return true;
}

bool Includes(const std::vector<TrajId>& big, const std::vector<TrajId>& small) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

std::string Describe(const Request& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "tick=%d mode=%d", static_cast<int>(r.tick),
                static_cast<int>(r.mode));
  return buf;
}

/// Per-request checks; returns false when the answer is wrong.
bool CheckOne(const RawIndex& raw, const Request& req, const Truth& truth,
              const QueryResponse& resp, const CheckContext& ctx,
              Tally* tally) {
  const double tol = ctx.radius * (1.0 + 1e-9) + 1e-12;
  switch (req.kind) {
    case 0:
    case 1: {
      const auto& ids = resp.strq().ids;
      if (!StrictlyAscending(ids)) {
        tally->Wrong(req.kind, "ids not ascending/unique " + Describe(req));
        return false;
      }
      Point p;
      for (TrajId id : ids) {
        if (!raw.PointOf(id, req.tick, &p)) {
          tally->Wrong(req.kind, "inactive id " + Describe(req));
          return false;
        }
      }
      if (req.mode == StrqMode::kExact && ids != truth.ids) {
        tally->Wrong(req.kind, "exact ids differ from raw answer " +
                                   Describe(req));
        return false;
      }
      if (req.mode == StrqMode::kLocalSearch && !Includes(ids, truth.ids)) {
        tally->Wrong(req.kind,
                     "local search misses a raw match " + Describe(req));
        return false;
      }
      if (req.mode == StrqMode::kApproximate && ctx.accuracy && req.kind == 0) {
        size_t tp = 0;
        for (TrajId id : ids) {
          tp += std::binary_search(truth.ids.begin(), truth.ids.end(), id);
        }
        tally->approx_tp += tp;
        tally->approx_fp += ids.size() - tp;
        tally->approx_fn += truth.ids.size() - tp;
      }
      return true;
    }
    case 2: {
      const auto& nn = resp.neighbors();
      const auto& q = std::get<ppq::core::KnnRequest>(req.query).query;
      if (nn.size() != std::min(kKnnK, truth.active)) {
        tally->Wrong(2, "answer size != min(k, active) " + Describe(req));
        return false;
      }
      std::vector<TrajId> ids;
      for (size_t i = 0; i < nn.size(); ++i) {
        if (i > 0 && !(nn[i - 1].distance < nn[i].distance ||
                       (nn[i - 1].distance == nn[i].distance &&
                        nn[i - 1].id < nn[i].id))) {
          tally->Wrong(2, "not ordered by (distance, id) " + Describe(req));
          return false;
        }
        Point p;
        if (!raw.PointOf(nn[i].id, req.tick, &p)) {
          tally->Wrong(2, "inactive id " + Describe(req));
          return false;
        }
        // Lemma 3: the reconstruction lies within the radius of the raw
        // point, so its distance to q differs from the raw one by at most
        // the radius.
        if (std::fabs(nn[i].distance - Dist(p, q.position)) > tol) {
          tally->Wrong(2, "distance beyond the Lemma 3 bound " + Describe(req));
          return false;
        }
        ids.push_back(nn[i].id);
      }
      std::sort(ids.begin(), ids.end());
      if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
        tally->Wrong(2, "duplicate id " + Describe(req));
        return false;
      }
      // Completeness: a trajectory left out should reconstruct at least as
      // far as the last one returned, so by Lemma 3 its raw distance is at
      // least that distance less the radius. The ring search breaks this
      // on a few requests of some seeds (README "Reference checker"), so a
      // breach is counted apart and does not make the answer wrong.
      if (!nn.empty()) {
        const double floor = nn.back().distance - tol;
        for (const auto& e : raw.At(req.tick)) {
          if (Dist(e.p, q.position) < floor &&
              !std::binary_search(ids.begin(), ids.end(), e.id)) {
            ++tally->knn_incomplete;
            break;
          }
        }
      }
      if (ctx.accuracy && !truth.nearest.empty()) {
        size_t hit = 0;
        for (TrajId id : truth.nearest) {
          hit += std::binary_search(ids.begin(), ids.end(), id);
        }
        tally->recall_sum +=
            static_cast<double>(hit) / static_cast<double>(truth.nearest.size());
        ++tally->recall_n;
      }
      return true;
    }
    default: {
      const auto& tpq = resp.tpq();
      if (tpq.ids != truth.ids || tpq.paths.size() != tpq.ids.size()) {
        tally->Wrong(3, "match ids differ from raw answer " + Describe(req));
        return false;
      }
      double dev = 0.0;
      size_t n = 0;
      for (size_t i = 0; i < tpq.ids.size(); ++i) {
        const auto& path = tpq.paths[i];
        const size_t want = std::min<size_t>(
            kTpqLength, raw.RemainingFrom(tpq.ids[i], req.tick));
        if (path.size() != want) {
          tally->Wrong(3, "path length differs from the raw trajectory " +
                              Describe(req));
          return false;
        }
        for (size_t j = 0; j < path.size(); ++j) {
          Point p;
          raw.PointOf(tpq.ids[i], req.tick + static_cast<Tick>(j), &p);
          const double d = Dist(path[j], p);
          if (d > tol) {
            tally->Wrong(3, "path point beyond the Lemma 3 bound " +
                                Describe(req));
            return false;
          }
          dev += d;
          ++n;
        }
      }
      if (ctx.accuracy) {
        tally->dev_sum += dev;
        tally->dev_n += n;
      }
      return true;
    }
  }
}

}  // namespace

void CheckResponses(const RawIndex& raw, const std::vector<Request>& requests,
                    const std::vector<Truth>& truth,
                    const std::vector<QueryResponse>& responses,
                    const CheckContext& context, Tally* tally) {
  std::vector<uint8_t> good(requests.size(), 0);
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    ++tally->attempted[req.kind];
    if (!responses[i].ok()) {
      ++tally->failed[req.kind];
      if (tally->errors.size() < 8) {
        tally->errors.push_back(std::string(kKindNames[req.kind]) +
                                ": status " + responses[i].status.ToString());
      }
      continue;
    }
    good[i] = CheckOne(raw, req, truth[i], responses[i], context, tally);
  }
  if (!context.sealed) return;
  // approximate ⊆ local-search ⊇ exact within each STRQ triple (the
  // triple is approximate, local-search, exact at consecutive indices).
  for (size_t i = 0; i + 2 < requests.size(); ++i) {
    if (requests[i].kind != 0 || requests[i].triple != i) continue;
    if (!good[i] || !good[i + 1] || !good[i + 2]) continue;
    const auto& approx = responses[i].strq().ids;
    const auto& local = responses[i + 1].strq().ids;
    const auto& exact = responses[i + 2].strq().ids;
    if (!Includes(local, approx) || !Includes(local, exact)) {
      tally->Wrong(0, "approximate ⊆ local-search ⊇ exact broken " +
                          Describe(requests[i]));
    }
  }
}

// ---------------------------------------------------------------------------
// Samples and metrics
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double TailMean(std::vector<double> v, double share) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end(), std::greater<double>());
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(share * static_cast<double>(v.size())));
  return std::accumulate(v.begin(), v.begin() + n, 0.0) /
         static_cast<double>(n);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void ServeLog::Add(const std::vector<Request>& list,
                   const std::vector<double>& latency,
                   const std::vector<QueryResponse>& responses,
                   const std::vector<Truth>& truth, double round_wall_s,
                   bool with_stats) {
  requests += list.size();
  wall_s += round_wall_s;
  for (size_t i = 0; i < list.size(); ++i) {
    latency_us[list[i].kind].push_back(latency[i]);
    if (!with_stats || !responses[i].ok()) continue;
    const auto& st = responses[i].stats;
    queue_us.push_back(static_cast<double>(st.queue_micros));
    for (size_t s = 0; s < ppq::core::kNumServeStages; ++s) {
      stage_us[s] += static_cast<double>(st.stage_micros[s]);
    }
    latency_sum_us += latency[i];
    points_decoded += static_cast<double>(st.points_decoded);
    candidates[list[i].kind] += static_cast<double>(st.candidates_visited);
    if (list[i].kind == 2) {
      knn_scan_us.push_back(static_cast<double>(
          st.stage_micros[static_cast<size_t>(ppq::core::ServeStage::kScan)]));
    }
    if (list[i].kind == 0 && list[i].mode == StrqMode::kExact) {
      exact_strq_visited += static_cast<double>(st.candidates_visited);
      exact_strq_active += static_cast<double>(truth[i].active);
    }
  }
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Metrics::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string Metrics::Json() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

}  // namespace ppqbench

/// \file bench_micro.cc
/// google-benchmark micro suite over the substrates: quantizer assignment
/// and growth, CQC encode/decode, Huffman coding, grid-index queries,
/// k-means, partitioner updates, the linear predictor — and the simd.h
/// hot-path kernels, each benchmarked scalar-vs-dispatched.
///
/// After the google-benchmark run, a hand-timed kernel gate suite prints
/// one machine-parseable line per kernel:
///   [micro] kernel=<name> n=<n> scalar_ns=<ns/item> simd_ns=<ns/item>
///           speedup=<r> level=<scalar|sse2|avx2> gate=<pass|FAIL|none|skipped>
/// The gated kernel is span_decode — the deployed batched span decode
/// (SummarySnapshot::ReconstructSpan over a real PPQ-A seal, warm memo)
/// against the scalar per-point decode loop the serve path ran before
/// batching — which must hold >= 2x; the binary exits non-zero when it
/// does not (gate=skipped in -DPPQ_SIMD=OFF builds, where there is no
/// SIMD side to compare). The other kernel lines are instruction-level
/// scalar-reference-vs-dispatched ratios, reported for the perf trail.
///
/// --json=<path> additionally writes every [micro] record (plus the
/// google-benchmark-independent fields) as a BENCH_micro.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/query_eval.h"
#include "cqc/cqc_codec.h"
#include "index/grid_index.h"
#include "index/huffman.h"
#include "partition/incremental_partitioner.h"
#include "predictor/linear_predictor.h"
#include "quantizer/incremental_quantizer.h"
#include "quantizer/kmeans.h"

namespace ppq {
namespace {

std::vector<Point> RandomPoints(size_t n, double span, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(0.0, span), rng.Uniform(0.0, span)});
  }
  return points;
}

void BM_KMeans(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const auto points = RandomPoints(static_cast<size_t>(n), 1.0, 1);
  const auto flat = quantizer::FlattenPoints(points);
  for (auto _ : state) {
    Rng rng(2);
    auto result = quantizer::RunKMeans(flat, n, 2, k, {}, rng);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KMeans)->Args({1000, 16})->Args({1000, 256})->Args({10000, 64});

void BM_QuantizerAssign(benchmark::State& state) {
  // Steady-state assignment: codebook already covers the space.
  quantizer::IncrementalQuantizer::Options options;
  options.epsilon = 0.01;
  quantizer::IncrementalQuantizer quantizer(options);
  quantizer::Codebook codebook;
  const auto warmup = RandomPoints(20000, 1.0, 3);
  quantizer.QuantizeBatch(warmup, &codebook);
  const auto batch = RandomPoints(static_cast<size_t>(state.range(0)), 1.0, 4);
  for (auto _ : state) {
    auto codes = quantizer.QuantizeBatch(batch, &codebook);
    benchmark::DoNotOptimize(codes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantizerAssign)->Arg(1000)->Arg(10000);

void BM_QuantizerGrowth(benchmark::State& state) {
  // Cold start: every batch lands in fresh space, forcing growth.
  const auto batch = RandomPoints(static_cast<size_t>(state.range(0)), 1.0, 5);
  for (auto _ : state) {
    state.PauseTiming();
    quantizer::IncrementalQuantizer::Options options;
    options.epsilon = 0.005;
    quantizer::IncrementalQuantizer quantizer(options);
    quantizer::Codebook codebook;
    state.ResumeTiming();
    auto codes = quantizer.QuantizeBatch(batch, &codebook);
    benchmark::DoNotOptimize(codes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantizerGrowth)->Arg(1000)->Arg(10000);

void BM_CqcEncode(benchmark::State& state) {
  cqc::CqcCodec codec(0.001, 50.0 / 111320.0);
  Rng rng(6);
  const Point original{1.0, 1.0};
  std::vector<Point> recons;
  for (int i = 0; i < 1024; ++i) {
    recons.push_back({1.0 + rng.Uniform(-9e-4, 9e-4),
                      1.0 + rng.Uniform(-9e-4, 9e-4)});
  }
  size_t i = 0;
  for (auto _ : state) {
    auto code = codec.Encode(original, recons[i++ & 1023]);
    benchmark::DoNotOptimize(code);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CqcEncode);

void BM_CqcRefine(benchmark::State& state) {
  cqc::CqcCodec codec(0.001, 50.0 / 111320.0);
  const Point original{1.0, 1.0};
  const Point recon{1.0004, 0.9996};
  const cqc::CqcCode code = codec.Encode(original, recon);
  for (auto _ : state) {
    auto refined = codec.Refine(recon, code);
    benchmark::DoNotOptimize(refined);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CqcRefine);

void BM_HuffmanRoundTrip(benchmark::State& state) {
  Rng rng(7);
  std::vector<int32_t> ids;
  int32_t id = 0;
  for (int i = 0; i < 1000; ++i) {
    id += static_cast<int32_t>(rng.UniformInt(1, 8));
    ids.push_back(id);
  }
  std::unordered_map<uint32_t, uint64_t> freq;
  index::AccumulateDeltaFrequencies(ids, &freq);
  const auto table = index::HuffmanTable::Build(freq);
  for (auto _ : state) {
    auto packed = index::CompressIds(ids, table);
    auto unpacked = index::DecompressIds(*packed, table);
    benchmark::DoNotOptimize(unpacked);
  }
  state.SetItemsProcessed(state.iterations() * ids.size());
}
BENCHMARK(BM_HuffmanRoundTrip);

void BM_GridIndexQuery(benchmark::State& state) {
  index::GridIndex grid(index::Rect{0.0, 0.0, 1.0, 1.0}, 0.01);
  const auto points = RandomPoints(50000, 1.0, 8);
  for (Tick t = 0; t < 100; ++t) {
    std::vector<TrajId> ids;
    std::vector<Point> positions;
    for (size_t i = static_cast<size_t>(t); i < points.size(); i += 100) {
      ids.push_back(static_cast<TrajId>(i));
      positions.push_back(points[i]);
    }
    grid.Insert(t, ids.data(), positions.data(), ids.size());
  }
  grid.Finalize();
  size_t i = 0;
  for (auto _ : state) {
    auto ids = grid.Query(points[i % points.size()],
                          static_cast<Tick>(i % 100));
    benchmark::DoNotOptimize(ids);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridIndexQuery);

void BM_PartitionerUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  partition::IncrementalPartitioner::Options options;
  options.epsilon = 0.1;
  partition::IncrementalPartitioner partitioner(options);
  Rng rng(9);
  std::vector<TrajId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(static_cast<TrajId>(i));
  std::vector<double> features;
  for (int i = 0; i < n; ++i) {
    features.push_back(rng.Uniform(0.0, 1.0));
    features.push_back(rng.Uniform(0.0, 1.0));
  }
  for (auto _ : state) {
    // Jitter features slightly to mimic motion between ticks.
    for (double& f : features) f += rng.Normal(0.0, 1e-3);
    auto assignment = partitioner.Update(ids, features, 2);
    benchmark::DoNotOptimize(assignment);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PartitionerUpdate)->Arg(500)->Arg(2000);

void BM_PredictorFit(benchmark::State& state) {
  Rng rng(10);
  std::vector<predictor::PredictionSample> samples;
  for (int i = 0; i < 500; ++i) {
    predictor::PredictionSample s;
    s.target = {rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    for (int j = 0; j < 3; ++j) {
      s.history.push_back({rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)});
    }
    samples.push_back(std::move(s));
  }
  predictor::LinearPredictor predictor(3);
  for (auto _ : state) {
    auto coeffs = predictor.Fit(samples);
    benchmark::DoNotOptimize(coeffs);
  }
  state.SetItemsProcessed(state.iterations() * samples.size());
}
BENCHMARK(BM_PredictorFit);

// ---------------------------------------------------------------------------
// simd.h kernels: scalar reference vs dispatched, same inputs
// ---------------------------------------------------------------------------

/// Shared inputs for the kernel benchmarks: uniform points, their SoA
/// split, and a realistic CQC code stream (encoded deviations, so the
/// bits/length distributions match what a summary stores).
struct KernelInputs {
  explicit KernelInputs(size_t n) : codec(0.001, 50.0 / 111320.0) {
    Rng rng(11);
    pts.reserve(n);
    xs.reserve(n);
    ys.reserve(n);
    bits.reserve(n);
    lens.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Point p{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
      pts.push_back(p);
      xs.push_back(p.x);
      ys.push_back(p.y);
      const Point recon{p.x + rng.Uniform(-9e-4, 9e-4),
                        p.y + rng.Uniform(-9e-4, 9e-4)};
      const cqc::CqcCode code = codec.Encode(p, recon);
      bits.push_back(code.bits);
      lens.push_back(code.length);
    }
    mask.resize(n);
    dist.resize(n);
    out.resize(n);
  }

  cqc::CqcCodec codec;
  std::vector<Point> pts;
  std::vector<double> xs, ys;
  std::vector<uint64_t> bits;
  std::vector<int32_t> lens;
  std::vector<uint8_t> mask;
  std::vector<double> dist;
  std::vector<Point> out;
  Point q{0.5, 0.5};
  double min_x = 0.25, min_y = 0.25, max_x = 0.75, max_y = 0.75;
};

using MaskFn = void (*)(const Point*, size_t, double, double, double, double,
                        uint8_t*);
using RegionFn = void (*)(const Point*, size_t, double, double, double,
                          double, double*);
using DistFn = void (*)(const Point*, size_t, const Point&, double*);
using SoaFn = void (*)(const double*, const double*, size_t, const Point&,
                       double*);
using RefineFn = void (*)(const Point*, const uint64_t*, const int32_t*,
                          size_t, const Point*, size_t, int32_t, Point*);

void BM_KernelContainsMask(benchmark::State& state, MaskFn fn) {
  KernelInputs in(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    fn(in.pts.data(), in.pts.size(), in.min_x, in.min_y, in.max_x, in.max_y,
       in.mask.data());
    benchmark::DoNotOptimize(in.mask.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_KernelContainsMask, scalar, &simd::ContainsMaskScalar)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelContainsMask, simd, &simd::ContainsMask)
    ->Arg(4096);

void BM_KernelRegionDistances(benchmark::State& state, RegionFn fn) {
  KernelInputs in(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    fn(in.pts.data(), in.pts.size(), in.min_x, in.min_y, in.max_x, in.max_y,
       in.dist.data());
    benchmark::DoNotOptimize(in.dist.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_KernelRegionDistances, scalar,
                  &simd::RegionDistancesScalar)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelRegionDistances, simd, &simd::RegionDistances)
    ->Arg(4096);

void BM_KernelDistances(benchmark::State& state, DistFn fn) {
  KernelInputs in(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    fn(in.pts.data(), in.pts.size(), in.q, in.dist.data());
    benchmark::DoNotOptimize(in.dist.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_KernelDistances, scalar, &simd::DistancesScalar)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelDistances, simd, &simd::Distances)->Arg(4096);

void BM_KernelSquaredDistancesSoa(benchmark::State& state, SoaFn fn) {
  KernelInputs in(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    fn(in.xs.data(), in.ys.data(), in.xs.size(), in.q, in.dist.data());
    benchmark::DoNotOptimize(in.dist.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_KernelSquaredDistancesSoa, scalar,
                  &simd::SquaredDistancesSoaScalar)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelSquaredDistancesSoa, simd,
                  &simd::SquaredDistancesSoa)
    ->Arg(4096);

void BM_KernelCqcRefineSpan(benchmark::State& state, RefineFn fn) {
  KernelInputs in(static_cast<size_t>(state.range(0)));
  const auto& lut = in.codec.refine_lut();
  for (auto _ : state) {
    fn(in.pts.data(), in.bits.data(), in.lens.data(), in.pts.size(),
       lut.data(), lut.size(), in.codec.code_bits(), in.out.data());
    benchmark::DoNotOptimize(in.out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_KernelCqcRefineSpan, scalar, &simd::CqcRefineSpanScalar)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelCqcRefineSpan, simd, &simd::CqcRefineSpan)
    ->Arg(4096);

// ---------------------------------------------------------------------------
// Hand-timed kernel gate suite ([micro] lines + BENCH_micro.json)
// ---------------------------------------------------------------------------

/// Best-of-\p reps ns/item over \p inner calls of \p f per rep.
template <typename F>
double BestNsPerItem(size_t items, int reps, int inner, F&& f) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < inner; ++i) f();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    best = std::min(best, ns / (static_cast<double>(items) * inner));
  }
  return best;
}

int RunKernelGate(const std::string& json_path) {
  const char* level = simd::ActiveLevelName();
  const bool simd_on = simd::ActiveLevel() != simd::Level::kScalar;
  bench::PerfJson json;
  bool gate_failed = false;

  const auto report = [&](const char* kernel, size_t n, double scalar_ns,
                          double simd_ns, bool gated) {
    const double speedup = simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0;
    const char* gate = "none";
    if (gated) {
      if (!simd_on) {
        gate = "skipped";
      } else if (speedup >= 2.0) {
        gate = "pass";
      } else {
        gate = "FAIL";
        gate_failed = true;
      }
    }
    std::printf("[micro] kernel=%s n=%zu scalar_ns=%.3f simd_ns=%.3f "
                "speedup=%.2f level=%s gate=%s\n",
                kernel, n, scalar_ns, simd_ns, speedup, level, gate);
    json.Begin(kernel);
    json.Field("n", static_cast<double>(n));
    json.Field("scalar_ns", scalar_ns);
    json.Field("simd_ns", simd_ns);
    json.Field("speedup", speedup);
    json.Text("level", level);
    json.Text("gate", gate);
  };

  // --- Instruction-level kernels: scalar reference vs dispatched --------
  constexpr size_t kN = 4096;
  constexpr int kReps = 5, kInner = 64;
  KernelInputs in(kN);

  report("contains_mask", kN,
         BestNsPerItem(kN, kReps, kInner,
                       [&] {
                         simd::ContainsMaskScalar(
                             in.pts.data(), kN, in.min_x, in.min_y, in.max_x,
                             in.max_y, in.mask.data());
                         benchmark::DoNotOptimize(in.mask.data());
                       }),
         BestNsPerItem(kN, kReps, kInner,
                       [&] {
                         simd::ContainsMask(in.pts.data(), kN, in.min_x,
                                            in.min_y, in.max_x, in.max_y,
                                            in.mask.data());
                         benchmark::DoNotOptimize(in.mask.data());
                       }),
         /*gated=*/false);
  report("region_distance", kN,
         BestNsPerItem(kN, kReps, kInner,
                       [&] {
                         simd::RegionDistancesScalar(
                             in.pts.data(), kN, in.min_x, in.min_y, in.max_x,
                             in.max_y, in.dist.data());
                         benchmark::DoNotOptimize(in.dist.data());
                       }),
         BestNsPerItem(kN, kReps, kInner,
                       [&] {
                         simd::RegionDistances(in.pts.data(), kN, in.min_x,
                                               in.min_y, in.max_x, in.max_y,
                                               in.dist.data());
                         benchmark::DoNotOptimize(in.dist.data());
                       }),
         /*gated=*/false);
  report("knn_distance", kN,
         BestNsPerItem(kN, kReps, kInner,
                       [&] {
                         simd::DistancesScalar(in.pts.data(), kN, in.q,
                                               in.dist.data());
                         benchmark::DoNotOptimize(in.dist.data());
                       }),
         BestNsPerItem(kN, kReps, kInner,
                       [&] {
                         simd::Distances(in.pts.data(), kN, in.q,
                                         in.dist.data());
                         benchmark::DoNotOptimize(in.dist.data());
                       }),
         /*gated=*/false);
  report("nearest_centroid", kN,
         BestNsPerItem(kN, kReps, kInner,
                       [&] {
                         simd::SquaredDistancesSoaScalar(
                             in.xs.data(), in.ys.data(), kN, in.q,
                             in.dist.data());
                         benchmark::DoNotOptimize(in.dist.data());
                       }),
         BestNsPerItem(kN, kReps, kInner,
                       [&] {
                         simd::SquaredDistancesSoa(in.xs.data(), in.ys.data(),
                                                   kN, in.q, in.dist.data());
                         benchmark::DoNotOptimize(in.dist.data());
                       }),
         /*gated=*/false);
  {
    const auto& lut = in.codec.refine_lut();
    report("cqc_refine_span", kN,
           BestNsPerItem(kN, kReps, kInner,
                         [&] {
                           simd::CqcRefineSpanScalar(
                               in.pts.data(), in.bits.data(), in.lens.data(),
                               kN, lut.data(), lut.size(),
                               in.codec.code_bits(), in.out.data());
                           benchmark::DoNotOptimize(in.out.data());
                         }),
           BestNsPerItem(kN, kReps, kInner,
                         [&] {
                           simd::CqcRefineSpan(
                               in.pts.data(), in.bits.data(), in.lens.data(),
                               kN, lut.data(), lut.size(),
                               in.codec.code_bits(), in.out.data());
                           benchmark::DoNotOptimize(in.out.data());
                         }),
           /*gated=*/false);
  }

  // --- The gated kernel: deployed span decode vs scalar per-point decode
  // over a real PPQ-A seal (warm memo — the query-serving steady state
  // whose cost QueryStats::decode_micros measures).
  {
    bench::BenchOptions bopts;
    bopts.scale = 0.05;
    bench::DatasetBundle bundle = bench::MakePortoBundle(bopts);
    bench::MethodSetup setup;
    setup.mode = core::QuantizationMode::kErrorBounded;
    auto method = bench::MakeCompressor("PPQ-A", bundle, setup);
    method->Compress(bundle.data);
    const core::SnapshotPtr snap = method->Seal();
    const std::vector<core::RecordSpan> spans = method->RecordSpans();

    constexpr size_t kSpan = 64;
    size_t total_points = 0;
    for (const auto& s : spans) total_points += static_cast<size_t>(s.length);

    core::DecodeMemo memo_point, memo_span;
    std::vector<Point> buf(kSpan);
    const auto per_point_pass = [&] {
      for (const auto& s : spans) {
        const Tick end = s.start_tick + s.length;
        for (Tick t = s.start_tick; t < end; ++t) {
          const auto p = snap->Reconstruct(s.id, t, &memo_point);
          benchmark::DoNotOptimize(p);
        }
      }
    };
    const auto span_pass = [&] {
      for (const auto& s : spans) {
        const Tick end = s.start_tick + s.length;
        for (Tick t = s.start_tick; t < end;
             t += static_cast<Tick>(kSpan)) {
          const size_t want =
              std::min(kSpan, static_cast<size_t>(end - t));
          const size_t m =
              snap->ReconstructSpan(s.id, t, want, buf.data(), &memo_span);
          benchmark::DoNotOptimize(m);
        }
      }
    };
    per_point_pass();  // warm the decode memos once
    span_pass();
    report("span_decode", total_points,
           BestNsPerItem(total_points, kReps, 1, per_point_pass),
           BestNsPerItem(total_points, kReps, 1, span_pass),
           /*gated=*/true);
  }

  if (!json_path.empty() && !json.Write(json_path, "micro")) {
    std::fprintf(stderr, "bench_micro: could not write %s\n",
                 json_path.c_str());
    return 2;
  }
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace ppq

int main(int argc, char** argv) {
  // google-benchmark rejects flags it does not know: pull --json=<path>
  // out of argv before Initialize sees it.
  const std::string json_path = ppq::bench::ParseJsonPath(argc, argv);
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) != 0) args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ppq::RunKernelGate(json_path);
}

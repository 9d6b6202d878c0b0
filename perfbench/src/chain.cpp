// Workload `chain`: the plain single-threaded baseline. Back-to-back
// in-process Engine::run("serial") jobs, one thread, on the paper's §VII
// scene (1024², 150 cells, r≈10). No server, no pools, no fan-out.

#include <cstdio>

#include "common.hpp"
#include "core/runtime_predictor.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/tiling.hpp"

namespace perfbench {

namespace mp = mcmcpar;

namespace {

struct ChainJob {
  double wall = 0.0;
  double cpu = 0.0;
  std::uint64_t iterations = 0;
  double f1 = 0.0;
  bool traced = false;
};

constexpr double kRadius = 10.0;
/// 150 circles per job keep the chain's F1 within a few hundredths of 0.94,
/// so the full-size chain holds a tighter floor than single served jobs; the
/// 12-circle toy scene is as quantized as a served job and uses theirs.
constexpr double kChainF1Floor = 0.8;

/// One job: Engine::run untraced; traced, the same three steps Engine::run
/// takes (make, prepare, run) each inside its layer's span.
mp::engine::RunReport runJob(std::uint64_t seed, const mp::engine::Problem& problem,
                             std::uint64_t iterations, bool traced) {
  const mp::engine::Engine engine(mp::engine::ExecResources{1, false, seed});
  const mp::engine::RunBudget budget{iterations, 0};
  if (!traced) return engine.run("serial", problem, budget);
  mp::obs::Span run("bench.engine", "run");
  const std::unique_ptr<mp::engine::Strategy> strategy = engine.make("serial");
  {
    mp::obs::Span prepare("bench.engine", "prepare");
    strategy->prepare(problem);
  }
  mp::obs::Span sample("bench.mcmc", "sample");
  return strategy->run(budget);
}

}  // namespace

RunRecord runChain(const RunConfig& config) {
  const int size = config.toy ? 256 : 1024;
  const int cells = config.toy ? 12 : 150;
  const std::uint64_t iterations = config.toy ? 20000 : 150000;
  const double latencyLimit = config.toy ? 5.0 : 3.0;
  const double f1Floor = config.toy ? kF1Floor : kChainF1Floor;

  RunRecord record;
  mp::img::Scene scene;
  const double setupSeconds = timeSetup([&] {
    scene = mp::img::generateScene(
        mp::img::cellScene(size, size, cells, kRadius, config.seed));
    const mp::engine::RunReport warm =
        runJob(config.seed, cellProblem(scene.image, kRadius), 10000, false);
    (void)warm;
  });
  const mp::engine::Problem problem = cellProblem(scene.image, kRadius);
  const std::vector<mp::model::Circle> truth = toCircles(scene.truth);
  const mp::shard::DensityMap density = mp::shard::scanDensity(scene.image);
  const double activity =
      mp::shard::regionMeanActivity(density, {0, 0, size, size});

  // Measured loop. A traced run alternates untraced and traced jobs, so the
  // tracing overhead is the ratio of the two halves' tau under the same
  // host conditions.
  std::vector<ChainJob> jobs;
  mp::engine::RunReport first;
  const Clock::time_point begin = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    const double elapsed = secondsBetween(begin, Clock::now());
    if (elapsed >= config.seconds && jobs.size() >= 3) break;
    const bool traced = config.trace && k % 2 == 1;
    mp::obs::Tracer::global().setEnabled(traced);
    const double jobCpu0 = processCpuSeconds();
    const Clock::time_point a = Clock::now();
    mp::engine::RunReport report =
        runJob(config.seed * 1000 + k, problem, iterations, traced);
    const double wall = secondsBetween(a, Clock::now());
    const double jobCpu = processCpuSeconds() - jobCpu0;
    if (config.fault == "f1" && k == 1) report.circles.clear();
    const double f1 = detectF1(report.circles, truth, kRadius);
    record.check(f1 >= f1Floor && report.iterations == iterations,
                 "chain job " + std::to_string(k) + " F1 " + std::to_string(f1));
    jobs.push_back({wall, jobCpu, report.iterations, f1, traced});
    if (k == 0) first = std::move(report);
  }
  mp::obs::Tracer::global().setEnabled(false);

  // The chain must be deterministic: job 0 again, same seed, same result.
  const mp::engine::RunReport again =
      runJob(config.seed * 1000 + (config.fault == "repeat" ? 1 : 0), problem,
             iterations, false);
  record.check(again.logPosterior == first.logPosterior &&
                   again.circles.size() == first.circles.size(),
               "chain repeat differs: logP " + std::to_string(again.logPosterior) +
                   " vs " + std::to_string(first.logPosterior));

  auto collect = [&](int traced, auto field) {
    std::vector<double> out;
    for (const ChainJob& j : jobs) {
      if (traced < 0 || j.traced == (traced == 1)) out.push_back(field(j));
    }
    return out;
  };
  auto tauOf = [](const ChainJob& j) {
    return j.wall / static_cast<double>(j.iterations) * 1e6;
  };
  auto wallOf = [](const ChainJob& j) { return j.wall; };
  auto cpuOf = [](const ChainJob& j) { return j.cpu; };
  const int segment = config.trace ? 1 : 0;
  const std::vector<double> walls = collect(segment, wallOf);
  std::size_t good = 0;
  for (const ChainJob& j : jobs) {
    good += (j.f1 >= f1Floor && j.wall <= latencyLimit) ? 1 : 0;
  }

  if (!config.trace) {
    record.add("setup_s", setupSeconds, "s");
    // One job class, so the job-wall analogues coincide.
    const double fastWall = quantile(walls, kFastQuantile);
    record.add("tau_us", quantile(collect(0, tauOf), kFastQuantile), "us");
    record.add("short_p50_s", fastWall, "s");
    record.add("short_p90_s", quantile(walls, kFastUpperQuantile), "s");
    record.add("bulk_p50_s", fastWall, "s");
    record.add("goodput_frac",
               static_cast<double>(good) / static_cast<double>(jobs.size()),
               "ratio");
    record.add("shard_job_s", fastWall, "s");
    record.add("cpu_per_job_s", quantile(collect(0, cpuOf), kFastQuantile), "s");
    record.add("detect_f1", mean(collect(-1, [](const ChainJob& j) { return j.f1; })),
               "ratio");
    return record;
  }

  // Traced: per-layer numbers from the spans, counts from the reference job.
  mp::obs::Tracer::global().setEnabled(true);
  {
    mp::obs::Span span("bench.obs", "scrape");
    const std::string text = mp::obs::Registry::global().renderPrometheus();
    record.add("obs.scrape_bytes", static_cast<double>(text.size()), "bytes");
    record.add("host.simd_avx2", buildInfoSimd(text) == "avx2" ? 1.0 : 0.0, "bool");
  }
  runProbes({&scene.image, config.workDir, config.seed, config.toy});
  const SpanTable spans =
      drainTrace(config.outDir + "/chain-seed" + std::to_string(config.seed) +
                 ".trace.json");
  addProbeMetrics(spans, record);

  std::uint64_t tracedIterations = 0;
  for (const ChainJob& j : jobs) tracedIterations += j.traced ? j.iterations : 0;
  const auto sample = spans.find("bench.mcmc/sample");
  record.add("mcmc.sample_us_per_iter",
             sample == spans.end() || tracedIterations == 0
                 ? 0.0
                 : sample->second.selfSeconds / static_cast<double>(tracedIterations) * 1e6,
             "us");
  record.add("mcmc.accept_frac", first.acceptanceRate, "ratio");
  for (const auto& [move, stats] : first.diagnostics.perMove()) {
    record.add("mcmc.proposed." + move, static_cast<double>(stats.proposed), "count");
    record.add("mcmc.accepted." + move, static_cast<double>(stats.accepted), "count");
  }
  std::vector<double> ratios;
  for (const ChainJob& j : jobs) {
    ratios.push_back(j.wall / mp::core::predictCostSeconds(j.iterations, activity));
  }
  record.add("core.predict_ratio", median(ratios), "ratio");
  const auto scrape = spans.find("bench.obs/scrape");
  record.add("obs.scrape_s", scrape == spans.end() ? 0.0 : scrape->second.selfSeconds, "s");
  const double untracedTau = quantile(collect(0, tauOf), kFastQuantile);
  const double tracedTau = quantile(collect(1, tauOf), kFastQuantile);
  record.add("trace.overhead_frac",
             untracedTau > 0.0 ? tracedTau / untracedTau - 1.0 : 0.0, "ratio");
  return record;
}

}  // namespace perfbench

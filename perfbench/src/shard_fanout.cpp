// Workload `shard_fanout`: closed loop, one coordinator job at a time. The
// "sharded" strategy runs tiles=auto with backend=socket over two in-process
// one-thread endpoints, on a content-skewed 1024² scene (dense clusters
// beside empty regions). Threads: the coordinator (this thread, two
// connections) plus one worker per endpoint.

#include <cstdio>
#include <sstream>

#include "common.hpp"
#include "core/runtime_predictor.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "shard/report.hpp"
#include "shard/tiling.hpp"

namespace perfbench {

namespace mp = mcmcpar;

namespace {

constexpr double kRadius = 10.0;

mp::img::SceneSpec skewedScene(bool toy, std::uint64_t seed) {
  mp::img::SceneSpec spec = mp::img::cellScene(toy ? 384 : 1024, toy ? 384 : 1024,
                                               0, kRadius, seed);
  const double s = toy ? 0.375 : 1.0;
  const int k = toy ? 3 : 1;
  spec.clusters = {{64 * s, 64 * s, 256 * s, 256 * s, 45 / k, 0.0},
                   {600 * s, 120 * s, 320 * s, 160 * s, 30 / k, 0.0},
                   {160 * s, 640 * s, 200 * s, 300 * s, 30 / k, 0.0}};
  return spec;
}

/// Two one-thread endpoint servers listening on ephemeral ports.
struct Fleet {
  std::unique_ptr<mp::serve::Server> servers[2];
  std::unique_ptr<mp::serve::SocketFrontend> frontends[2];

  ~Fleet() {
    for (int i = 0; i < 2; ++i) {
      if (frontends[i]) frontends[i]->stop();
      if (servers[i]) servers[i]->shutdown(5.0);
    }
  }
  [[nodiscard]] std::string endpoints() const {
    return "endpoints=127.0.0.1:" + std::to_string(frontends[0]->port()) +
           ",127.0.0.1:" + std::to_string(frontends[1]->port());
  }
};

std::unique_ptr<Fleet> startFleet(std::uint64_t seed) {
  auto fleet = std::make_unique<Fleet>();
  for (int i = 0; i < 2; ++i) {
    mp::serve::ServerOptions options;
    options.threads = 1;
    options.seed = seed + static_cast<std::uint64_t>(i);
    options.radius = kRadius;
    fleet->servers[i] = std::make_unique<mp::serve::Server>(options);
    fleet->frontends[i] =
        std::make_unique<mp::serve::SocketFrontend>(*fleet->servers[i], 0);
  }
  return fleet;
}

mp::engine::RunReport runSharded(const mp::engine::Problem& problem,
                                 std::uint64_t seed, std::uint64_t iterations,
                                 const std::string& backend,
                                 const std::string& endpoints) {
  const mp::engine::Engine engine(mp::engine::ExecResources{1, false, seed});
  // max-tiles pinned to the socket default (two per endpoint) so the local
  // re-run plans the same grid; unpinned, local derives it from its threads.
  std::vector<std::string> options = {"tiles=auto", "max-tiles=4",
                                      "backend=" + backend};
  if (backend == "socket") options.push_back(endpoints);
  return engine.run("sharded", problem, {iterations, 0}, {}, options);
}

struct ShardJob {
  double wall = 0.0;
  double cpu = 0.0;  ///< process CPU-s, endpoints included
  double f1 = 0.0;
  bool correct = false;
  bool traced = false;
  mp::shard::ShardReport shard;
  std::uint64_t iterations = 0;
};

/// Per-tile check: the stitched detections a tile's core owns against the
/// truth its core owns. Near-empty tiles (at most two truth circles) may
/// miss or add one circle instead.
bool tilesCorrect(const mp::shard::ShardReport& shard,
                  const std::vector<mp::model::Circle>& found,
                  const std::vector<mp::model::Circle>& truth, std::string& why) {
  for (const mp::shard::TileRun& tile : shard.tiles) {
    std::vector<mp::model::Circle> f;
    std::vector<mp::model::Circle> t;
    for (const auto& c : found) if (tile.spec.ownsCentre(c)) f.push_back(c);
    for (const auto& c : truth) if (tile.spec.ownsCentre(c)) t.push_back(c);
    const double f1 = detectF1(f, t, kRadius);
    const bool sparse = t.size() <= 2 &&
                        (f.size() > t.size() ? f.size() - t.size() : t.size() - f.size()) <= 1;
    if (!tile.error.empty() || !(f1 >= kF1Floor || sparse)) {
      why = tile.label + " F1 " + std::to_string(f1) + " " + tile.error;
      return false;
    }
  }
  return true;
}

/// Mean of a Prometheus histogram family's series whose labels contain
/// `labelMatch` (all series when empty): sum of _sum over sum of _count.
double histogramMean(const std::string& exposition, const std::string& family,
                     const std::string& labelMatch) {
  double sum = 0.0;
  double count = 0.0;
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    const bool isSum = line.rfind(family + "_sum", 0) == 0;
    const bool isCount = line.rfind(family + "_count", 0) == 0;
    if (!isSum && !isCount) continue;
    if (!labelMatch.empty() && line.find(labelMatch) == std::string::npos) continue;
    const double value = std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    (isSum ? sum : count) += value;
  }
  return count > 0.0 ? sum / count : 0.0;
}

}  // namespace

RunRecord runShardFanout(const RunConfig& config) {
  const std::uint64_t iterations = config.toy ? 60000 : 300000;
  const double latencyLimit = config.toy ? 10.0 : 5.0;
  RunRecord record;

  mp::img::Scene scene;
  std::unique_ptr<Fleet> fleet;
  const double setupSeconds = timeSetup([&] {
    fleet.reset();
    scene = mp::img::generateScene(skewedScene(config.toy, config.seed));
    fleet = startFleet(config.seed);
    // Warm-up: one small fan-out over both endpoints.
    const mp::engine::RunReport warm = runSharded(
        cellProblem(scene.image, kRadius), config.seed, iterations / 10, "socket",
        fleet->endpoints());
    (void)warm;
  });
  const mp::engine::Problem problem = cellProblem(scene.image, kRadius);
  const std::vector<mp::model::Circle> truth = toCircles(scene.truth);
  const std::string endpoints = fleet->endpoints();

  // A traced run alternates untraced and traced jobs (see chain.cpp).
  std::vector<ShardJob> jobs;
  const Clock::time_point begin = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    const double elapsed = secondsBetween(begin, Clock::now());
    if (elapsed >= config.seconds && jobs.size() >= 3) break;
    ShardJob job;
    job.traced = config.trace && k % 2 == 1;
    mp::obs::Tracer::global().setEnabled(job.traced);
    const double cpu0 = processCpuSeconds();
    const Clock::time_point a = Clock::now();
    mp::engine::RunReport report;
    {
      mp::obs::Span span("bench.shard", "job");
      report = runSharded(problem, config.seed * 1000 + k, iterations, "socket",
                          endpoints);
    }
    job.wall = secondsBetween(a, Clock::now());
    job.cpu = processCpuSeconds() - cpu0;
    if (config.fault == "f1" && k == 1) report.circles.clear();
    job.f1 = detectF1(report.circles, truth, kRadius);
    job.iterations = report.iterations;
    job.shard = std::get<mp::shard::ShardReport>(report.extras);
    std::string why;
    job.correct = job.f1 >= kF1Floor && tilesCorrect(job.shard, report.circles, truth, why);
    record.check(job.correct, "shard job " + std::to_string(k) + " F1 " +
                                  std::to_string(job.f1) + " " + why);
    jobs.push_back(std::move(job));
  }
  mp::obs::Tracer::global().setEnabled(false);

  // Remote tiles must be bit-exact: the same job through backend=local.
  const mp::engine::RunReport viaSocket =
      runSharded(problem, config.seed * 1000, iterations, "socket", endpoints);
  const mp::engine::RunReport viaLocal =
      runSharded(problem, config.seed * 1000 + (config.fault == "backend" ? 1 : 0),
                 iterations, "local", endpoints);
  record.check(viaSocket.circles == viaLocal.circles,
               "socket and local backends disagree: " +
                   std::to_string(viaSocket.circles.size()) + " vs " +
                   std::to_string(viaLocal.circles.size()) + " circles");

  auto collect = [&](int segment, auto field) {
    std::vector<double> out;
    for (const ShardJob& j : jobs) {
      if (segment < 0 || j.traced == (segment == 1)) out.push_back(field(j));
    }
    return out;
  };
  auto wallOf = [](const ShardJob& j) { return j.wall; };
  auto tauOf = [](const ShardJob& j) {
    std::uint64_t iters = 0;
    for (const auto& t : j.shard.tiles) iters += t.iterations;
    return j.shard.sumTileSeconds / static_cast<double>(iters) * 1e6;
  };
  const int segment = config.trace ? 1 : 0;
  const std::vector<double> walls = collect(segment, wallOf);
  // Tile round trips are a mixed population (adaptive tiles range from
  // empty to dense), so they are summarised per job first: its median and
  // its slowest tile. The fast quantile is then taken over jobs.
  auto medianTileOf = [](const ShardJob& j) {
    std::vector<double> tileWalls;
    for (const auto& t : j.shard.tiles) tileWalls.push_back(t.wallSeconds);
    return median(tileWalls);
  };
  auto slowestTileOf = [](const ShardJob& j) { return j.shard.maxTileSeconds; };

  if (!config.trace) {
    std::size_t good = 0;
    for (const ShardJob& j : jobs) good += (j.correct && j.wall <= latencyLimit) ? 1 : 0;
    record.add("setup_s", setupSeconds, "s");
    const double fastWall = quantile(walls, kFastQuantile);
    record.add("tau_us", quantile(collect(0, tauOf), kFastQuantile), "us");
    record.add("short_p50_s", quantile(collect(0, medianTileOf), kFastQuantile), "s");
    record.add("short_p90_s", quantile(collect(0, slowestTileOf), kFastQuantile), "s");
    record.add("bulk_p50_s", fastWall, "s");
    record.add("goodput_frac",
               static_cast<double>(good) / static_cast<double>(jobs.size()), "ratio");
    record.add("shard_job_s", fastWall, "s");
    record.add("cpu_per_job_s",
               quantile(collect(0, [](const ShardJob& j) { return j.cpu; }),
                        kFastQuantile),
               "s");
    record.add("detect_f1", mean(collect(-1, [](const ShardJob& j) { return j.f1; })),
               "ratio");
    return record;
  }

  // Traced: the shard split tiling + slowest tile + fan-out overhead +
  // stitch, each a median over the traced jobs (the job from its bench span,
  // tiling from its probe span); the overhead is the residual, so the four
  // add up to the median job exactly.
  const double slowest = median(collect(1, [](const ShardJob& j) {
    return j.shard.maxTileSeconds;
  }));
  const double stitch = median(collect(1, [](const ShardJob& j) {
    return j.shard.mergeSeconds;
  }));
  record.add("shard.tiles",
             median(collect(1, [](const ShardJob& j) {
               return static_cast<double>(j.shard.tiles.size());
             })),
             "count");
  record.add("shard.slowest_tile_s", slowest, "s");
  record.add("shard.tile_imbalance", median(collect(1, [](const ShardJob& j) {
               const double mean = j.shard.sumTileSeconds /
                                   static_cast<double>(j.shard.tiles.size());
               return mean > 0.0 ? j.shard.maxTileSeconds / mean : 0.0;
             })),
             "ratio");
  record.add("shard.stitch_s", stitch, "s");
  double hedges = 0.0;
  double requeues = 0.0;
  for (const ShardJob& j : jobs) {
    hedges += static_cast<double>(j.shard.hedgesIssued);
    requeues += static_cast<double>(j.shard.requeues);
  }
  record.add("shard.hedges", hedges, "count");
  record.add("shard.requeues", requeues, "count");

  const mp::shard::DensityMap density = mp::shard::scanDensity(scene.image);
  std::vector<double> ratios;
  for (const ShardJob& j : jobs) {
    for (const auto& t : j.shard.tiles) {
      ratios.push_back(t.wallSeconds /
                       mp::core::predictCostSeconds(
                           t.iterations, mp::shard::regionMeanActivity(density, t.spec.core)));
    }
  }
  record.add("core.predict_ratio", median(ratios), "ratio");
  record.add("mcmc.sample_us_per_iter", median(collect(1, tauOf)), "us");
  record.add("mcmc.accept_frac", viaSocket.acceptanceRate, "ratio");
  for (const auto& [move, stats] : viaSocket.diagnostics.perMove()) {
    record.add("mcmc.proposed." + move, static_cast<double>(stats.proposed), "count");
    record.add("mcmc.accepted." + move, static_cast<double>(stats.accepted), "count");
  }

  // Endpoint-side serve numbers from one METRICS round trip: per-command
  // and per-job means as the endpoints saw them (the registry is
  // process-wide, so it covers both endpoints). The client-side split that
  // adds up to a job exists only on serve_mix.
  mp::serve::Client client;
  client.connect("127.0.0.1", fleet->frontends[0]->port(), 60.0);
  mp::obs::Tracer::global().setEnabled(true);
  std::string exposition;
  {
    mp::obs::Span span("bench.obs", "scrape");
    exposition = client.metrics();
  }
  client.close();
  mp::obs::Tracer::global().setEnabled(false);
  record.add("obs.scrape_bytes", static_cast<double>(exposition.size()), "bytes");
  record.add("host.simd_avx2", buildInfoSimd(exposition) == "avx2" ? 1.0 : 0.0, "bool");
  const std::string command = "mcmcpar_serve_command_seconds";
  record.add("serve.upload_rtt_s", histogramMean(exposition, command, "\"UPLOAD\""), "s");
  record.add("serve.submit_rtt_s", histogramMean(exposition, command, "\"SUBMIT\""), "s");
  record.add("serve.report_rtt_s", histogramMean(exposition, command, "\"REPORT\""), "s");
  record.add("serve.queue_wait_s",
             histogramMean(exposition, "mcmcpar_serve_queue_wait_seconds", ""), "s");
  record.add("serve.service_s",
             histogramMean(exposition, "mcmcpar_serve_job_run_seconds", ""), "s");
  double hits = 0.0;
  double lookups = 0.0;
  for (const auto& server : fleet->servers) {
    const mp::serve::ServerStats stats = server->stats();
    hits += static_cast<double>(stats.cache.hits);
    lookups += static_cast<double>(stats.cache.hits + stats.cache.misses);
  }
  record.add("serve.cache_hit_frac", lookups > 0.0 ? hits / lookups : 0.0, "ratio");

  fleet.reset();
  runProbes({&scene.image, config.workDir, config.seed, config.toy});
  const SpanTable spans = drainTrace(config.outDir + "/shard_fanout-seed" +
                                     std::to_string(config.seed) + ".trace.json");
  addProbeMetrics(spans, record);
  const auto scrape = spans.find("bench.obs/scrape");
  record.add("obs.scrape_s", scrape == spans.end() ? 0.0 : scrape->second.selfSeconds, "s");
  const double jobS = median(spans.at("bench.shard/job").selfSamples);
  const double tiling = median(spans.at("bench.shard/tiling").selfSamples);
  record.add("shard.job_s", jobS, "s");
  record.add("shard.fanout_overhead_s", jobS - tiling - slowest - stitch, "s");
  const double untraced = median(collect(0, wallOf));
  record.add("trace.overhead_frac", untraced > 0.0 ? jobS / untraced - 1.0 : 0.0, "ratio");
  return record;
}

}  // namespace perfbench

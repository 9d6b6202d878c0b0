// Per-layer probes: small timed calls into single layers' public functions,
// each wrapped in a bench span so the traced run reads them back as self
// time. They run after the workload's measured loop, on the workload's own
// image, so they never disturb the end-to-end numbers.

#include <algorithm>
#include <thread>

#include "common.hpp"
#include "engine/engine.hpp"
#include "img/image.hpp"
#include "img/pnm_io.hpp"
#include "model/posterior.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "rng/stream.hpp"
#include "shard/tiling.hpp"
#include "stream/tracker.hpp"

namespace perfbench {

namespace mp = mcmcpar;

namespace {

constexpr int kDeltaCalls = 20000;
volatile double gSink = 0.0;
const char* const kOverheadStrategies[] = {"serial", "speculative",
                                           "periodic", "mc3"};

/// Time ModelState::deltaReplace on a scene of `radius` discs: every truth
/// circle committed, then each call proposes a jittered replacement.
void probeDeltaReplace(double radius, int size, int cells, std::uint64_t seed,
                       const std::string& spanName) {
  const mp::img::Scene scene = mp::img::generateScene(
      mp::img::cellScene(size, size, cells, radius, seed));
  mp::model::ModelState state(scene.image, cellProblem(scene.image, radius).prior, {});
  std::vector<mp::model::CircleId> ids;
  for (const mp::img::SceneCircle& c : scene.truth) {
    ids.push_back(state.commitAdd({c.x, c.y, c.r}));
  }
  std::vector<mp::model::Circle> proposals;
  mp::rng::Stream stream(seed ^ 0x5eedu);
  for (int i = 0; i < kDeltaCalls; ++i) {
    const mp::img::SceneCircle& c =
        scene.truth[static_cast<std::size_t>(i) % scene.truth.size()];
    proposals.push_back({c.x + stream.uniform(-2.0, 2.0),
                         c.y + stream.uniform(-2.0, 2.0),
                         c.r * stream.uniform(0.9, 1.1)});
  }
  double sum = 0.0;
  {
    mp::obs::Span span("bench.model", spanName);
    for (int i = 0; i < kDeltaCalls; ++i) {
      sum += state.deltaReplace(ids[static_cast<std::size_t>(i) % ids.size()],
                                proposals[static_cast<std::size_t>(i)]);
    }
  }
  gSink = sum;  // keeps the timed calls from being optimised away
}

}  // namespace

void runProbes(const ProbeInput& input) {
  const int reps = input.toy ? 2 : 5;
  mp::obs::Tracer::global().setEnabled(true);

  // model: replace-move delta at the two disc sizes the workloads use.
  probeDeltaReplace(10.0, 192, 10, input.seed, "delta_replace.r10");
  probeDeltaReplace(20.0, 256, 6, input.seed, "delta_replace.r20");

  // engine: prepare on the workload image; fixed overhead of a 1-iteration
  // run per strategy on a small scene.
  const mp::engine::Engine engine(mp::engine::ExecResources{1, false, input.seed});
  for (int r = 0; r < reps; ++r) {
    auto strategy = engine.make("serial");
    mp::obs::Span span("bench.engine", "prepare");
    strategy->prepare(cellProblem(*input.image, 10.0));
  }
  const mp::img::Scene small = mp::img::generateScene(
      mp::img::cellScene(192, 192, 10, 10.0, input.seed));
  for (const char* name : kOverheadStrategies) {
    for (int r = 0; r < reps; ++r) {
      mp::obs::Span span("bench.engine", std::string("run_overhead.") + name);
      const mp::engine::RunReport report =
          engine.run(name, cellProblem(small.image, 10.0), {1, 0});
      (void)report;
    }
  }

  // par: spawn and join a pool as wide as the host.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int r = 0; r < 4 * reps; ++r) {
    mp::obs::Span span("bench.par", "pool_spawn");
    mp::par::ThreadPool pool(nproc);
  }

  // img: decode one serve_mix interactive-sized PGM the way the server's
  // cache-miss path does.
  const std::string pgmPath = input.workDir + "/probe.pgm";
  mp::img::writePgm(mp::img::toU8(small.image), pgmPath);
  for (int r = 0; r < reps; ++r) {
    mp::obs::Span span("bench.img", "decode");
    const mp::img::ImageF decoded = mp::img::toF(mp::img::readPgm(pgmPath));
    (void)decoded;
  }

  // stream: the cross-frame tracker over a drifting sequence's truth.
  mp::img::DriftSpec drift;
  drift.scene = mp::img::cellScene(512, 512, 40, 10.0, input.seed);
  drift.frames = 8;
  const std::vector<mp::img::Scene> frames =
      mp::img::generateDriftingSequence(drift);
  for (int r = 0; r < reps; ++r) {
    mp::stream::Tracker tracker;
    for (std::size_t k = 0; k < frames.size(); ++k) {
      const std::vector<mp::model::Circle> detections =
          toCircles(frames[k].truth);
      mp::obs::Span span("bench.stream", "track");
      (void)tracker.update(k, detections);
    }
  }

  // shard: the tiles=auto planning step on the workload image.
  for (int r = 0; r < reps; ++r) {
    mp::obs::Span span("bench.shard", "tiling");
    const mp::shard::DensityMap density = mp::shard::scanDensity(*input.image);
    const mp::shard::TileGrid grid =
        mp::shard::makeAdaptiveTileGrid(density, 4, 16);
    (void)grid;
  }
  mp::obs::Tracer::global().setEnabled(false);
}

namespace {

double medianSelf(const SpanTable& spans, const std::string& key) {
  const auto it = spans.find(key);
  return it == spans.end() ? 0.0 : median(it->second.selfSamples);
}

}  // namespace

void addProbeMetrics(const SpanTable& spans, RunRecord& record) {
  record.add("model.delta_replace_ns.r10",
             medianSelf(spans, "bench.model/delta_replace.r10") * 1e9 /
                 kDeltaCalls,
             "ns");
  record.add("model.delta_replace_ns.r20",
             medianSelf(spans, "bench.model/delta_replace.r20") * 1e9 /
                 kDeltaCalls,
             "ns");
  record.add("engine.prepare_s", medianSelf(spans, "bench.engine/prepare"), "s");
  for (const char* name : kOverheadStrategies) {
    record.add(std::string("engine.run_overhead_s.") + name,
               medianSelf(spans, std::string("bench.engine/run_overhead.") + name),
               "s");
  }
  record.add("par.pool_spawn_us", medianSelf(spans, "bench.par/pool_spawn") * 1e6,
             "us");
  record.add("img.decode_s", medianSelf(spans, "bench.img/decode"), "s");
  record.add("stream.track_us", medianSelf(spans, "bench.stream/track") * 1e6,
             "us");
  record.add("shard.tiling_s", medianSelf(spans, "bench.shard/tiling"), "s");
}

}  // namespace perfbench

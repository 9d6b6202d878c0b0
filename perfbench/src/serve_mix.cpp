// Workload `serve_mix`: a live in-process serve::Server + SocketFrontend
// driven over the real socket protocol, open loop on a seeded arrival
// schedule at one fixed rate. Three @client buckets:
//   interactive  192² images reused by path (cache hits), serial /
//                speculative / periodic, short budgets;
//   upload       fresh-pixel 256² r≈20 images sent as gray8 UPLOAD frames,
//                decoded and interned on every job;
//   bulk         rare 512² mc3 jobs and @sequence=8 drifting-synth jobs.
// Threads: the server's 2 budgeted workers plus 2 client threads (the
// sender and the completer), each with its own connection.

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common.hpp"
#include "img/image.hpp"
#include "img/pnm_io.hpp"
#include "obs/trace.hpp"
#include "rng/stream.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"

namespace perfbench {

namespace mp = mcmcpar;

namespace {

enum class Kind { Interactive, Upload, BulkMc3, BulkSequence };

bool isShort(Kind kind) { return kind == Kind::Interactive || kind == Kind::Upload; }

const char* kindName(Kind kind) {
  switch (kind) {
    case Kind::Interactive: return "interactive";
    case Kind::Upload: return "upload";
    case Kind::BulkMc3: return "bulk mc3";
    case Kind::BulkSequence: return "bulk sequence";
  }
  return "?";
}

/// Shape of the mix. Rates are fixed (not calibrated per run) so a slower
/// program meets the same offered load and shows it as latency.
struct MixShape {
  int interactiveImages = 8;
  int interactiveSize = 192;
  int interactiveCells = 10;
  std::uint64_t interactiveIters = 10000;
  int uploadSize = 256;
  int uploadCells = 6;
  std::uint64_t uploadIters = 8000;
  int synthSize = 512;
  int synthCells = 40;
  std::uint64_t mc3Iters = 25000;
  std::uint64_t frameIters = 10000;
  int frames = 8;
  /// Short arrivals per second: about half the short-job capacity, which a
  /// closed loop of the same short jobs (`--capacity`, kCapacityWindow in
  /// flight) measured at 50-55 jobs/s on the reference host.
  double shortRate = 26.0;
  double uploadShare = 0.3;   ///< of short arrivals
  /// An mc3 job leases both budget threads for about 0.2 s, so every short
  /// job arriving while one runs, or while the backlog it leaves drains at
  /// half load, queues behind it. One every 6 s delays about 7% of short
  /// jobs: short_p90_s then sits clearly outside that queued population
  /// instead of on its edge, where it would flip between runs. Twice as
  /// many mc3 as sequence jobs keep bulk_p50_s inside the mc3 population.
  double mc3Period = 6.0;
  double sequencePeriod = 12.0;
  double latencyLimit = 1.0;  ///< goodput limit for short jobs, seconds
};

/// Short jobs kept in flight by the closed-loop capacity run: the two
/// workers busy plus one queued job each.
constexpr std::size_t kCapacityWindow = 4;

/// short_p50_s and short_p90_s are taken per window of this many seconds of
/// scheduled send time (about 130 short jobs), and the median over the
/// run's windows is reported. The host's memory system has slow spells of a
/// few seconds that, at half load, inflate the queueing of every job in
/// them; one spell then moves a whole-run p90 by up to 1.5x, while the
/// median window stays in the host's usual regime.
constexpr double kWindowSeconds = 5.0;

MixShape shapeFor(bool toy, bool capacity) {
  MixShape shape;
  if (capacity) {
    // Closed loop over short jobs only: the schedule just has to hold more
    // arrivals than the workers can serve in the run.
    shape.shortRate = 60.0;
    shape.mc3Period = shape.sequencePeriod = 1e9;
  }
  if (toy) {
    shape.interactiveImages = 3;
    shape.interactiveIters = 5000;
    shape.uploadIters = 5000;
    shape.synthSize = 192;
    shape.synthCells = 8;
    shape.mc3Iters = 4000;
    shape.frameIters = 4000;
    shape.frames = 3;
    if (!capacity) {
      shape.shortRate = 6.0;
      shape.mc3Period = 0.7;
      shape.sequencePeriod = 1.4;
    }
    shape.latencyLimit = 5.0;
  }
  return shape;
}

struct Arrival {
  double at = 0.0;  ///< seconds after the start of the measured window
  Kind kind = Kind::Interactive;
  int image = 0;            ///< interactive image or upload scene index
  std::string strategy;     ///< interactive strategy
  std::uint64_t seed = 1;
};

/// Seeded open-loop schedule: jittered-periodic arrivals (spacing uniform in
/// [0.8, 1.2] x the mean), short and bulk streams merged. The jitter is kept
/// small so that seeds vary the inputs, not the burstiness of the load.
std::vector<Arrival> makeSchedule(const MixShape& shape, double seconds,
                                  std::uint64_t seed) {
  static const char* const kStrategies[] = {"serial", "speculative", "periodic"};
  mp::rng::Stream rng(seed * 0x9e3779b97f4a7c15ull + 17);
  std::vector<Arrival> out;
  int uploads = 0;
  for (double t = rng.uniform(0.0, 1.0 / shape.shortRate); t < seconds;
       t += rng.uniform(0.8, 1.2) / shape.shortRate) {
    Arrival a;
    a.at = t;
    a.seed = seed * 100000 + out.size() + 1;
    if (rng.uniform() < shape.uploadShare) {
      a.kind = Kind::Upload;
      a.image = uploads++;
    } else {
      a.kind = Kind::Interactive;
      a.image = static_cast<int>(rng.uniform() * shape.interactiveImages) %
                shape.interactiveImages;
      a.strategy = kStrategies[static_cast<int>(rng.uniform() * 3) % 3];
    }
    out.push_back(a);
  }
  int bulk = 0;
  for (const auto& [kind, period] : {std::pair{Kind::BulkMc3, shape.mc3Period},
                                     std::pair{Kind::BulkSequence, shape.sequencePeriod}}) {
    for (double t = period * rng.uniform(0.25, 0.75); t < seconds;
         t += period * rng.uniform(0.8, 1.2)) {
      Arrival a;
      a.at = t;
      a.kind = kind;
      a.seed = seed * 100000 + 50000 + static_cast<std::uint64_t>(++bulk);
      out.push_back(a);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  return out;
}

/// One scheduled job as the benchmark saw it.
struct JobTrack {
  Arrival arrival;
  bool sent = false;
  bool rejected = false;
  bool completed = false;
  bool correct = false;
  bool traced = false;
  std::uint64_t id = 0;
  Clock::time_point sched, sendStart, uploadEnd, okAt, started, done,
      reportStart, reportEnd;
  double f1 = 0.0;
  std::string error;         ///< why the REPORT could not be fetched or parsed
  double wallSeconds = 0.0;  ///< server-reported strategy wall
  double iterations = 0.0;
  double predicted = 0.0;
  double reportBytes = 0.0;
  std::vector<double> frameWalls;
  double carried = 0.0;
  double carriedOf = 0.0;  ///< circles of frames >= 1

  [[nodiscard]] double latency() const { return secondsBetween(sched, reportEnd); }
};

/// Everything the generated inputs need: images on disk, upload scenes and
/// the truth of every image the server will see.
struct Inputs {
  std::vector<std::string> paths;
  std::vector<std::vector<mp::model::Circle>> interactiveTruth;
  std::vector<mp::img::ImageU8> uploads;
  std::vector<std::vector<mp::model::Circle>> uploadTruth;
  std::vector<mp::model::Circle> synthTruth;
  std::vector<std::vector<mp::model::Circle>> frameTruth;
  mp::img::ImageF synthImage;
};

Inputs makeInputs(const MixShape& shape, const std::vector<Arrival>& schedule,
                  const RunConfig& config) {
  Inputs in;
  const std::string dir = config.workDir + "/serve_mix";
  std::filesystem::create_directories(dir);
  for (int i = 0; i < shape.interactiveImages; ++i) {
    const mp::img::Scene scene = mp::img::generateScene(mp::img::cellScene(
        shape.interactiveSize, shape.interactiveSize, shape.interactiveCells,
        10.0, config.seed * 100 + static_cast<std::uint64_t>(i)));
    in.paths.push_back(dir + "/interactive-" + std::to_string(i) + ".pgm");
    mp::img::writePgm(mp::img::toU8(scene.image), in.paths.back());
    in.interactiveTruth.push_back(toCircles(scene.truth));
  }
  for (const Arrival& a : schedule) {
    if (a.kind != Kind::Upload) continue;
    const mp::img::Scene scene = mp::img::generateScene(mp::img::cellScene(
        shape.uploadSize, shape.uploadSize, shape.uploadCells, 20.0,
        config.seed * 7919 + static_cast<std::uint64_t>(a.image)));
    in.uploads.push_back(mp::img::toU8(scene.image));
    in.uploadTruth.push_back(toCircles(scene.truth));
  }
  // The server's "synth" still and drifting sequence, regenerated here from
  // the same spec for their ground truth.
  const mp::img::SceneSpec synth = mp::img::cellScene(
      shape.synthSize, shape.synthSize, shape.synthCells, 10.0, config.seed);
  mp::img::Scene still = mp::img::generateScene(synth);
  in.synthTruth = toCircles(still.truth);
  in.synthImage = std::move(still.image);
  mp::img::DriftSpec drift;
  drift.scene = synth;
  drift.frames = shape.frames;
  for (const mp::img::Scene& frame : mp::img::generateDriftingSequence(drift)) {
    in.frameTruth.push_back(toCircles(frame.truth));
  }
  return in;
}

std::string jobLine(const MixShape& shape, const Inputs& in, const Arrival& a,
                    const std::string& uploadId) {
  const std::string seed = " @seed=" + std::to_string(a.seed);
  switch (a.kind) {
    case Kind::Interactive:
      return in.paths[static_cast<std::size_t>(a.image)] + " " + a.strategy +
             " @iters=" + std::to_string(shape.interactiveIters) + seed +
             " @client=interactive";
    case Kind::Upload:
      return uploadId + " serial @image=inline @radius=20 @iters=" +
             std::to_string(shape.uploadIters) + seed + " @client=upload";
    case Kind::BulkMc3:
      return "synth mc3 chains=2 @iters=" + std::to_string(shape.mc3Iters) +
             seed + " @client=bulk";
    case Kind::BulkSequence:
      return "synth serial @sequence=" + std::to_string(shape.frames) +
             " @iters=" + std::to_string(shape.frameIters) + seed +
             " @client=bulk";
  }
  return "";
}

/// The live server and the two client connections.
struct Rig {
  std::unique_ptr<mp::serve::Server> server;
  std::unique_ptr<mp::serve::SocketFrontend> frontend;
  mp::serve::Client sender;
  mp::serve::Client completer;

  ~Rig() {
    sender.close();
    completer.close();
    if (frontend) frontend->stop();
    if (server) server->shutdown(5.0);
  }
};

std::unique_ptr<Rig> startRig(const MixShape& shape, const RunConfig& config,
                              const Inputs& in, std::uint64_t& referenceId) {
  auto rig = std::make_unique<Rig>();
  mp::serve::ServerOptions options;
  options.threads = 2;
  options.seed = config.seed;
  options.radius = 10.0;
  options.synthWidth = shape.synthSize;
  options.synthHeight = shape.synthSize;
  options.synthCells = shape.synthCells;
  options.cacheBytes = 8u << 20;  // uploads evict each other, not the hot set
  rig->server = std::make_unique<mp::serve::Server>(options);
  rig->frontend = std::make_unique<mp::serve::SocketFrontend>(*rig->server, 0);
  rig->sender.connect("127.0.0.1", rig->frontend->port(), 60.0);
  rig->completer.connect("127.0.0.1", rig->frontend->port(), 60.0);
  // Warm-up: every interactive image once (fills the cache), one upload.
  std::vector<std::uint64_t> ids;
  for (const std::string& path : in.paths) {
    ids.push_back(rig->sender.submit(path + " serial @iters=2000 @seed=" +
                                     std::to_string(config.seed) +
                                     " @client=interactive"));
  }
  if (!in.uploads.empty()) {
    (void)rig->sender.upload("warm", in.uploads.front());
    ids.push_back(rig->sender.submit("warm serial @image=inline @radius=20 "
                                     "@iters=2000 @client=upload"));
  }
  for (const std::uint64_t id : ids) (void)rig->sender.wait(id);
  referenceId = ids.front();
  return rig;
}

/// Synchronised state shared by the event callback, sender and completer.
struct Shared {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<JobTrack> jobs;                  // guarded by mutex
  std::map<std::uint64_t, std::size_t> byId;   // guarded by mutex
  std::map<std::uint64_t, Clock::time_point> startedAt;  // guarded
  std::map<std::uint64_t, Clock::time_point> doneAt;     // guarded
  std::deque<std::uint64_t> finished;          // guarded
  std::size_t accepted = 0;                    // guarded
  std::size_t reported = 0;                    // guarded
  bool senderDone = false;                     // guarded
};

/// Check one REPORT against the truth of what was sent.
void scoreReport(const MixShape& shape, const Inputs& in,
                 const std::string& payload, JobTrack& job, bool corrupt) {
  const Json report = parseJson(payload);
  job.wallSeconds = report.num("wall_seconds");
  job.iterations = report.num("iterations");
  job.predicted = report.num("predicted_cost_seconds");
  std::vector<mp::model::Circle> found = reportCircles(report);
  if (corrupt) found.clear();
  const bool done = report.str("state") == "done";
  const Arrival& a = job.arrival;
  bool framesOk = true;
  switch (a.kind) {
    case Kind::Interactive:
      job.f1 = detectF1(found, in.interactiveTruth[static_cast<std::size_t>(a.image)], 10.0);
      break;
    case Kind::Upload:
      job.f1 = detectF1(found, in.uploadTruth[static_cast<std::size_t>(a.image)], 20.0);
      break;
    case Kind::BulkMc3:
      job.f1 = detectF1(found, in.synthTruth, 10.0);
      break;
    case Kind::BulkSequence: {
      job.f1 = detectF1(found, in.frameTruth.back(), 10.0);
      const Json* frames = report.get("frames");
      framesOk = frames && frames->items.size() ==
                               static_cast<std::size_t>(shape.frames);
      for (std::size_t k = 0; frames && k < frames->items.size(); ++k) {
        const Json& f = frames->items[k];
        const double circles = f.num("circles");
        const double truth = static_cast<double>(in.frameTruth[k].size());
        // Per-frame circle lists are not in the report, so each frame's
        // count must lie within [0.25, 4] x its truth (the ratio at which
        // F1 cannot exceed the 0.4 floor); the last frame is F1-scored.
        framesOk = framesOk && circles >= 0.25 * truth && circles <= 4.0 * truth;
        job.frameWalls.push_back(f.num("wall_seconds"));
        if (k > 0) {
          job.carried += f.num("carried");
          job.carriedOf += circles;
        }
      }
      break;
    }
  }
  job.correct = done && framesOk && job.f1 >= kF1Floor;
}

}  // namespace

RunRecord runServeMix(const RunConfig& config) {
  const MixShape shape = shapeFor(config.toy, config.capacity);
  RunRecord record;

  std::vector<Arrival> schedule;
  Inputs in;
  std::unique_ptr<Rig> rig;
  std::uint64_t referenceId = 0;
  const double setupSeconds = timeSetup([&] {
    rig.reset();
    schedule = makeSchedule(shape, config.seconds, config.seed);
    in = makeInputs(shape, schedule, config);
    rig = startRig(shape, config, in, referenceId);
  });

  Shared shared;
  for (const Arrival& a : schedule) {
    shared.jobs.emplace_back();
    shared.jobs.back().arrival = a;
  }
  const std::uint64_t token = rig->server->subscribe(
      [&shared](const mp::serve::JobEvent& e) {
        using Type = mp::serve::JobEvent::Type;
        if (e.type != Type::Started && e.type != Type::Done &&
            e.type != Type::Failed && e.type != Type::Cancelled) {
          return;
        }
        const Clock::time_point now = Clock::now();
        const std::scoped_lock lock(shared.mutex);
        if (e.type == Type::Started) {
          shared.startedAt[e.id] = now;
          return;
        }
        shared.doneAt[e.id] = now;
        shared.finished.push_back(e.id);
        shared.cv.notify_all();
      });

  const double untracedSeconds = config.trace ? config.seconds / 3.0 : config.seconds;
  const double cpu0 = processCpuSeconds();
  const Clock::time_point begin = Clock::now();

  // Sender: open loop, each job due at begin + at regardless of completions.
  // The capacity run is a closed loop instead: each job is sent as soon as
  // fewer than kCapacityWindow jobs are in flight, until the time is up.
  std::jthread sender([&] {
    std::size_t uploadIndex = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Arrival& a = schedule[i];
      Clock::time_point due = begin + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(a.at));
      if (config.capacity) {
        std::unique_lock lock(shared.mutex);
        shared.cv.wait(lock, [&] {
          return shared.accepted - shared.reported < kCapacityWindow;
        });
        due = Clock::now();
        if (secondsBetween(begin, due) >= config.seconds) break;
      } else {
        std::this_thread::sleep_until(due);
      }
      // A traced run measures its first third untraced; tracing then stays
      // on to the end, so the overhead is the ratio of the two segments.
      const bool traced = config.trace && a.at >= untracedSeconds;
      if (traced) mp::obs::Tracer::global().setEnabled(true);
      JobTrack job;
      {
        const std::scoped_lock lock(shared.mutex);
        job = shared.jobs[i];
      }
      job.traced = traced;
      job.sched = due;
      job.sendStart = Clock::now();
      job.sent = true;
      std::string uploadId;
      try {
        if (a.kind == Kind::Upload) {
          uploadId = "up" + std::to_string(i);
          mp::obs::Span span("bench.serve", "upload");
          (void)rig->sender.upload(uploadId, in.uploads[uploadIndex++]);
        }
        job.uploadEnd = Clock::now();
        mp::obs::Span span("bench.serve", "submit");
        job.id = rig->sender.submit(jobLine(shape, in, a, uploadId));
        job.okAt = Clock::now();
      } catch (const mp::serve::ProtocolError&) {
        job.rejected = true;
      }
      const std::scoped_lock lock(shared.mutex);
      shared.jobs[i] = job;
      if (!job.rejected) {
        shared.byId[job.id] = i;
        ++shared.accepted;
      }
      shared.cv.notify_all();
    }
    const std::scoped_lock lock(shared.mutex);
    shared.senderDone = true;
    shared.cv.notify_all();
  });

  // Completer: woken by terminal events, fetches each REPORT once.
  std::jthread completer([&] {
    bool first = true;
    for (;;) {
      std::uint64_t id = 0;
      std::size_t index = 0;
      {
        std::unique_lock lock(shared.mutex);
        const bool ready = shared.cv.wait_for(lock, std::chrono::seconds(90), [&] {
          if (!shared.finished.empty() &&
              shared.byId.count(shared.finished.front()) != 0) {
            return true;
          }
          return shared.senderDone && shared.reported == shared.accepted;
        });
        // Drained, or stuck for 90 s: unreported jobs then count as failed.
        if (!ready || shared.finished.empty() ||
            shared.byId.count(shared.finished.front()) == 0) {
          break;
        }
        id = shared.finished.front();
        shared.finished.pop_front();
        index = shared.byId[id];
      }
      JobTrack job;
      {
        const std::scoped_lock lock(shared.mutex);
        job = shared.jobs[index];
      }
      job.reportStart = Clock::now();
      try {
        std::string payload;
        {
          mp::obs::Span span("bench.serve", "report");
          payload = rig->completer.report(id);
        }
        job.reportEnd = Clock::now();
        job.reportBytes = static_cast<double>(payload.size());
        const bool faulty = std::exchange(first, false);
        if (faulty && config.fault == "report") payload.resize(payload.size() / 2);
        scoreReport(shape, in, payload, job, faulty && config.fault == "f1");
        job.completed = true;
      } catch (const std::exception& e) {
        job.reportEnd = Clock::now();
        job.error = e.what();
      }
      const std::scoped_lock lock(shared.mutex);
      job.started = shared.startedAt.count(id) ? shared.startedAt[id] : job.okAt;
      job.done = shared.doneAt[id];
      shared.jobs[index] = job;
      ++shared.reported;
      shared.cv.notify_all();
    }
  });
  sender.join();
  completer.join();
  mp::obs::Tracer::global().setEnabled(false);
  rig->server->unsubscribe(token);
  const double cpu = processCpuSeconds() - cpu0;
  const double elapsed = secondsBetween(begin, Clock::now());

  // Checks: every scheduled job must have been sent, accepted, reported and
  // scored above the floor.
  std::size_t completed = 0;
  for (const JobTrack& j : shared.jobs) {
    if (config.capacity && !j.sent) continue;  // the closed loop stopped first
    completed += j.completed ? 1 : 0;
    record.check(j.sent && !j.rejected && j.completed && j.correct,
                 "serve_mix job " + std::to_string(j.id) + " (" +
                     kindName(j.arrival.kind) + ")" +
                     (j.rejected ? " rejected" : "") +
                     (j.completed ? "" : " not reported: " + j.error) +
                     " F1 " + std::to_string(j.f1));
  }

  if (config.capacity) {
    std::size_t shortDone = 0;
    for (const JobTrack& j : shared.jobs) shortDone += j.completed ? 1 : 0;
    record.add("capacity.short_jobs_per_s",
               static_cast<double>(shortDone) / elapsed, "1/s");
    return record;
  }

  auto pick = [&](int segment, auto keep, auto field) {
    std::vector<double> out;
    for (const JobTrack& j : shared.jobs) {
      if (!j.completed || !keep(j)) continue;
      if (segment >= 0 && j.traced != (segment == 1)) continue;
      out.push_back(field(j));
    }
    return out;
  };
  auto shortJob = [](const JobTrack& j) { return isShort(j.arrival.kind); };
  auto bulkJob = [](const JobTrack& j) { return !isShort(j.arrival.kind); };
  auto serialInteractive = [](const JobTrack& j) {
    return j.arrival.kind == Kind::Interactive && j.arrival.strategy == "serial";
  };
  auto latencyOf = [](const JobTrack& j) { return j.latency(); };
  auto tauOf = [](const JobTrack& j) { return j.wallSeconds / j.iterations * 1e6; };
  const int segment = config.trace ? 1 : 0;
  const std::vector<double> shortLat = pick(segment, shortJob, latencyOf);
  const std::vector<double> bulkLat = pick(segment, bulkJob, latencyOf);

  if (!config.trace) {
    std::size_t shortSent = 0;
    std::size_t shortGood = 0;
    for (const JobTrack& j : shared.jobs) {
      if (!isShort(j.arrival.kind)) continue;
      ++shortSent;
      shortGood += (j.completed && j.correct && j.latency() <= shape.latencyLimit) ? 1 : 0;
    }
    record.add("setup_s", setupSeconds, "s");
    record.add("tau_us", median(pick(0, serialInteractive, tauOf)), "us");
    auto windowed = [&](double q) {
      std::map<int, std::vector<double>> byWindow;
      for (const JobTrack& j : shared.jobs) {
        if (!j.completed || !isShort(j.arrival.kind)) continue;
        byWindow[static_cast<int>(j.arrival.at / kWindowSeconds)].push_back(j.latency());
      }
      std::vector<double> perWindow;
      for (const auto& [window, latencies] : byWindow) {
        perWindow.push_back(quantile(latencies, q));
      }
      return median(perWindow);
    };
    record.add("short_p50_s", windowed(0.5), "s");
    record.add("short_p90_s", windowed(0.9), "s");
    record.add("bulk_p50_s", median(bulkLat), "s");
    record.add("goodput_frac",
               shortSent == 0 ? 0.0
                              : static_cast<double>(shortGood) /
                                    static_cast<double>(shortSent),
               "ratio");
    record.add("shard_job_s", median(bulkLat), "s");
    record.add("cpu_per_job_s",
               completed == 0 ? 0.0 : cpu / static_cast<double>(completed), "s");
    record.add("detect_f1",
               mean(pick(-1, [](const JobTrack&) { return true; },
                         [](const JobTrack& j) { return j.f1; })),
               "ratio");
    return record;
  }

  // Traced: the serve split of a short job. Parts are means per short job
  // (upload counts zero for interactive jobs) so they add up exactly:
  // upload + submit + queue + service + report + unattributed = short mean.
  std::vector<double> upload, submit, queue, service, report, total;
  for (const JobTrack& j : shared.jobs) {
    if (!j.completed || !j.traced || !isShort(j.arrival.kind)) continue;
    upload.push_back(secondsBetween(j.sendStart, j.uploadEnd));
    submit.push_back(secondsBetween(j.uploadEnd, j.okAt));
    queue.push_back(secondsBetween(j.okAt, j.started));
    service.push_back(secondsBetween(j.started, j.done));
    report.push_back(secondsBetween(j.reportStart, j.reportEnd));
    total.push_back(j.latency());
  }
  const double parts =
      mean(upload) + mean(submit) + mean(queue) + mean(service) + mean(report);
  record.add("serve.upload_rtt_s", mean(upload), "s");
  record.add("serve.submit_rtt_s", mean(submit), "s");
  record.add("serve.queue_wait_s", mean(queue), "s");
  record.add("serve.service_s", mean(service), "s");
  record.add("serve.report_rtt_s", mean(report), "s");
  record.add("serve.short_mean_s", mean(total), "s");
  record.add("serve.unattributed_s", mean(total) - parts, "s");
  record.add("serve.report_bytes",
             mean(pick(1, [](const JobTrack&) { return true; },
                       [](const JobTrack& j) { return j.reportBytes; })),
             "bytes");
  std::size_t rejected = 0;
  std::vector<double> late;
  for (const JobTrack& j : shared.jobs) {
    rejected += j.rejected ? 1 : 0;
    if (j.sent) late.push_back(secondsBetween(j.sched, j.sendStart));
  }
  record.add("serve.rejected", static_cast<double>(rejected), "count");
  record.add("gen.late_p90_s", quantile(late, 0.9), "s");

  // METRICS round trip: the obs layer's scrape, plus the cache counters.
  mp::obs::Tracer::global().setEnabled(true);
  std::string exposition;
  {
    mp::obs::Span span("bench.obs", "scrape");
    exposition = rig->sender.metrics();
  }
  mp::obs::Tracer::global().setEnabled(false);
  record.add("obs.scrape_bytes", static_cast<double>(exposition.size()), "bytes");
  record.add("host.simd_avx2", buildInfoSimd(exposition) == "avx2" ? 1.0 : 0.0, "bool");
  const mp::serve::ServerStats stats = rig->server->stats();
  record.add("serve.cache_hit_frac", stats.cache.hitRate(), "ratio");

  std::vector<double> ratios;
  for (const JobTrack& j : shared.jobs) {
    if (j.completed && j.arrival.kind != Kind::BulkSequence && j.predicted > 0.0) {
      ratios.push_back(j.wallSeconds / j.predicted);
    }
  }
  record.add("core.predict_ratio", median(ratios), "ratio");
  std::vector<double> frameWalls;
  double carried = 0.0;
  double carriedOf = 0.0;
  for (const JobTrack& j : shared.jobs) {
    frameWalls.insert(frameWalls.end(), j.frameWalls.begin(), j.frameWalls.end());
    carried += j.carried;
    carriedOf += j.carriedOf;
  }
  record.add("stream.frame_p50_s", median(frameWalls), "s");
  record.add("stream.carried_frac", carriedOf > 0.0 ? carried / carriedOf : 0.0,
             "ratio");
  record.add("mcmc.sample_us_per_iter", median(pick(1, serialInteractive, tauOf)), "us");
  if (const std::optional<mp::engine::RunReport> ref =
          rig->server->result(referenceId)) {
    record.add("mcmc.accept_frac", ref->acceptanceRate, "ratio");
    for (const auto& [move, stats2] : ref->diagnostics.perMove()) {
      record.add("mcmc.proposed." + move, static_cast<double>(stats2.proposed), "count");
      record.add("mcmc.accepted." + move, static_cast<double>(stats2.accepted), "count");
    }
  }
  const double untracedP50 = median(pick(0, shortJob, latencyOf));
  record.add("trace.overhead_frac",
             untracedP50 > 0.0 ? median(shortLat) / untracedP50 - 1.0 : 0.0, "ratio");

  rig.reset();
  runProbes({&in.synthImage, config.workDir, config.seed, config.toy});
  const SpanTable spans = drainTrace(config.outDir + "/serve_mix-seed" +
                                     std::to_string(config.seed) + ".trace.json");
  addProbeMetrics(spans, record);
  const auto scrape = spans.find("bench.obs/scrape");
  record.add("obs.scrape_s", scrape == spans.end() ? 0.0 : scrape->second.selfSeconds, "s");
  return record;
}

}  // namespace perfbench

#pragma once
// Shared pieces of the repository benchmark: run configuration, the metric
// record every workload fills, statistics, correctness scoring, host context
// and the span-derived per-layer timings. See perfbench/CATALOG.md for the
// metric catalog these names come from.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "img/synth.hpp"
#include "model/circle.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy size: small scenes and budgets so the self-check finishes fast.
  bool toy = false;
  /// Deliberately break one result so the self-check can prove that a
  /// correctness check fires. Empty for none; otherwise one of
  ///   f1       one job's detections are emptied (every workload);
  ///   repeat   chain's repeat run uses another seed;
  ///   backend  shard_fanout's backend=local re-run uses another seed;
  ///   report   serve_mix's first REPORT payload is cut in half.
  std::string fault;
  /// serve_mix only: instead of the open-loop mix, measure the short-job
  /// capacity with a saturating closed loop (no metrics from the catalog).
  bool capacity = false;
  /// Run records and Chrome traces; generated inputs. Relative to the
  /// repository root the benchmark runs from (both are git-ignored).
  std::string outDir = ".bench_out";
  std::string workDir = ".bench_work";
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run produces.
struct RunRecord {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few check failures, for humans

  void add(const std::string& name, double value, const std::string& unit);
  /// Count one checked operation; a false `ok` is a failure described by `what`.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const noexcept { return failed == 0; }
};

// --- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& values);

/// The closed-loop workloads (chain, shard_fanout) read their job timings at
/// this lower quantile, not the median. The host's memory system switches
/// between a fast and a slow regime every few seconds, which moves the time
/// of a 1024² job by up to 1.6x. The lower decile of a run's ~50 jobs
/// samples the fast regime in nearly every run; the median follows
/// whichever regime dominated the run. A uniform slow-down still shifts it.
inline constexpr double kFastQuantile = 0.1;
/// Their "p90" analogue: the lower quartile, the top of the fast band.
inline constexpr double kFastUpperQuantile = 0.25;

// --- process and host context ---------------------------------------------

/// Process CPU seconds (user + system) so far.
[[nodiscard]] double processCpuSeconds();
/// Peak resident set size in MB.
[[nodiscard]] double peakRssMb();
/// Effective cores from a calibrated burn: the same fixed integer work run
/// on one thread and then on `nproc` threads at once; nproc * t1 / tN.
[[nodiscard]] double measureEffectiveCores(unsigned nproc);
/// The `simd` label of the mcmcpar_build_info family in a Prometheus text
/// exposition ("" when absent).
[[nodiscard]] std::string buildInfoSimd(const std::string& exposition);

// --- inputs -----------------------------------------------------------------

/// The detection problem on `image` with a circle prior of mean `radius`,
/// its std/min/max derived by the rule the server applies to @radius
/// (r/8, r/2, 1.8r).
[[nodiscard]] mcmcpar::engine::Problem cellProblem(const mcmcpar::img::ImageF& image,
                                                   double radius);

// --- correctness ------------------------------------------------------------

[[nodiscard]] std::vector<mcmcpar::model::Circle> toCircles(
    const std::vector<mcmcpar::img::SceneCircle>& truth);
/// F1 of detections against ground truth, matched by centre distance within
/// half the mean truth radius. Two empty sets score 1.
[[nodiscard]] double detectF1(const std::vector<mcmcpar::model::Circle>& found,
                              const std::vector<mcmcpar::model::Circle>& truth,
                              double radius);

/// Minimum F1 of every served job, tile and sequence frame. It catches
/// broken output (empty, displaced, wrong image), not quality drift: r≈20
/// upload jobs converge to over-split discs on some seeds (F1 down to ~0.5
/// over 300 seeds), and one false failure in thousands of jobs would void a
/// run. Quality drift shows in the bounded detect_f1 median instead.
inline constexpr double kF1Floor = 0.4;

// --- a minimal JSON reader for REPORT payloads ------------------------------

/// Parsed JSON value (objects keep key order irrelevant; numbers are double).
struct Json {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  [[nodiscard]] const Json* get(const std::string& key) const;
  /// Field as a number; throws std::runtime_error when absent or not a number.
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] std::string str(const std::string& key) const;
};
/// Parse a complete JSON document; throws std::runtime_error on bad input.
[[nodiscard]] Json parseJson(const std::string& text);
/// `circles_detail` of a REPORT payload as circles.
[[nodiscard]] std::vector<mcmcpar::model::Circle> reportCircles(
    const Json& report);

// --- tracing ----------------------------------------------------------------

/// Span category prefix of the benchmark's own spans; library-internal
/// spans (other categories) are recorded too but excluded from self time.
inline constexpr const char* kSpanPrefix = "bench.";

/// Per span name: self time (duration minus the part covered by child bench
/// spans on the same thread), summed and one sample per span.
struct SpanTotals {
  double selfSeconds = 0.0;
  std::vector<double> selfSamples;
};
using SpanTable = std::map<std::string, SpanTotals>;

/// Drain the global tracer, write the Chrome JSON to `path` and return the
/// benchmark spans' self times keyed by "<category>/<name>".
[[nodiscard]] SpanTable drainTrace(const std::string& path);

// --- per-layer probes shared by every workload -----------------------------

/// Inputs of the probes: the workload's own representative image, so probe
/// numbers describe the data the workload actually processes.
struct ProbeInput {
  const mcmcpar::img::ImageF* image = nullptr;  ///< workload's main image (r≈10)
  std::string workDir;  ///< where the decode probe writes its PGM
  std::uint64_t seed = 1;
  bool toy = false;
};
/// Run the model / engine / par / img / stream / shard-tiling probes inside
/// bench spans. Their metrics are added from the span table afterwards by
/// addProbeMetrics.
void runProbes(const ProbeInput& input);
void addProbeMetrics(const SpanTable& spans, RunRecord& record);

// --- the workloads ----------------------------------------------------------

RunRecord runChain(const RunConfig& config);
RunRecord runServeMix(const RunConfig& config);
RunRecord runShardFanout(const RunConfig& config);

/// Set by main() at process start.
extern Clock::time_point gProcessStart;

/// setup_s: run the workload's whole set-up `kSetupRepeats` times and return
/// the median seconds of one. The first is timed from process start.
inline constexpr int kSetupRepeats = 5;
template <class SetUp>
[[nodiscard]] double timeSetup(SetUp&& setUp) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point start = rep == 0 ? gProcessStart : Clock::now();
    setUp();
    times.push_back(secondsBetween(start, Clock::now()));
  }
  return median(times);
}

}  // namespace perfbench

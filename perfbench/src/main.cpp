// perfbench: the repository benchmark. One workload per process.
//
//   perfbench --workload chain|serve_mix|shard_fanout --seed N --seconds S
//             --trace 0|1 [--toy] [--inject-fault f1|repeat|backend|report]
//   perfbench --workload serve_mix --capacity --seed N --seconds S
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the traced run that yields the per-layer metrics. Every metric is printed
// by name with its unit; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every correctness check passed. perfbench/CATALOG.md documents every
// name. --capacity prints serve_mix's closed-loop short-job capacity
// instead of the catalog.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "obs/metrics.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunRecord;

struct Declared {
  std::string name;
  std::string unit;
};

/// The catalog: the `end_to_end` or `per_layer` names and units of
/// BENCHMARK.json, read from the repository root the benchmark runs from.
std::vector<Declared> loadCatalog(const char* section) {
  std::ifstream in("BENCHMARK.json");
  if (!in) throw std::runtime_error("BENCHMARK.json not found in the working directory");
  std::ostringstream text;
  text << in.rdbuf();
  const perfbench::Json spec = perfbench::parseJson(text.str());
  const perfbench::Json* list = spec.get(section);
  if (!list || list->type != perfbench::Json::Type::Array) {
    throw std::runtime_error(std::string("BENCHMARK.json has no ") + section + " list");
  }
  std::vector<Declared> out;
  for (const perfbench::Json& item : list->items) {
    out.push_back({item.str("name"), item.str("unit")});
  }
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload chain|serve_mix|"
               "shard_fanout --seed N --seconds S --trace 0|1 [--toy] "
               "[--inject-fault f1|repeat|backend|report] [--capacity]\n",
               why);
  std::exit(2);
}

RunConfig parseArgs(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      config.seconds = std::stod(value());
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--toy") {
      config.toy = true;
    } else if (arg == "--capacity") {
      config.capacity = true;
    } else if (arg == "--inject-fault") {
      config.fault = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.workload != "chain" && config.workload != "serve_mix" &&
      config.workload != "shard_fanout") {
    usage("unknown or missing --workload");
  }
  if (!(config.seconds > 0.0)) usage("--seconds must be positive");
  if (config.capacity && config.workload != "serve_mix") {
    usage("--capacity applies to serve_mix only");
  }
  const std::string& w = config.workload;
  const std::string& f = config.fault;
  if (!(f.empty() || f == "f1" || (f == "repeat" && w == "chain") ||
        (f == "backend" && w == "shard_fanout") ||
        (f == "report" && w == "serve_mix"))) {
    usage(("fault " + f + " does not apply to " + w).c_str());
  }
  return config;
}

/// Shortest decimal text that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::gProcessStart = perfbench::Clock::now();
  const RunConfig config = parseArgs(argc, argv);
  std::filesystem::create_directories(config.outDir);
  std::filesystem::create_directories(config.workDir);

  std::vector<Declared> declared;
  RunRecord record;
  try {
    declared = loadCatalog(config.trace ? "per_layer" : "end_to_end");
    if (config.workload == "chain") {
      record = perfbench::runChain(config);
    } else if (config.workload == "serve_mix") {
      record = perfbench::runServeMix(config);
    } else {
      record = perfbench::runShardFanout(config);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }

  if (config.capacity) {
    for (const Metric& m : record.metrics) {
      std::printf("%s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                  m.unit.c_str());
    }
    for (const std::string& failure : record.failures) {
      std::printf("CHECK FAILED: %s\n", failure.c_str());
    }
    return record.correct() ? 0 : 1;
  }

  // Host context, measured after the workload so it cannot disturb it.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double effectiveCores = perfbench::measureEffectiveCores(nproc);
  const double cpu = perfbench::processCpuSeconds();
  const double wall =
      perfbench::secondsBetween(perfbench::gProcessStart, perfbench::Clock::now());

  if (config.trace) {
    record.add("host.effective_cores", effectiveCores, "cores");
    record.add("host.nproc", nproc, "count");
    record.add("host.cpu_s", cpu, "s");
    record.add("host.wall_s", wall, "s");
  } else {
    record.add("peak_rss_mb", perfbench::peakRssMb(), "MB");
  }

  // Emit exactly the declared set, in catalog order. A layer a workload does
  // not exercise reports 0 (no work done there), never a guess.
  std::vector<Metric> out;
  for (const Declared& d : declared) {
    Metric m{d.name, 0.0, d.unit};
    for (const Metric& have : record.metrics) {
      if (have.name == d.name) {
        m.value = have.value;
        if (have.unit != d.unit) {
          std::fprintf(stderr, "perfbench: %s unit %s != catalog %s\n",
                       d.name.c_str(), have.unit.c_str(), d.unit.c_str());
          return 1;
        }
      }
    }
    out.push_back(m);
  }
  std::set<std::string> names;
  for (const Declared& d : declared) names.insert(d.name);
  for (const Metric& have : record.metrics) {
    if (names.count(have.name) == 0) {
      std::fprintf(stderr, "perfbench: metric %s is not in the catalog\n",
                   have.name.c_str());
      return 1;
    }
  }

  for (const std::string& failure : record.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const double failFrac =
      record.attempted == 0
          ? 0.0
          : static_cast<double>(record.failed) / static_cast<double>(record.attempted);
  std::printf("workload %s seed %llu trace %d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0);
  for (const Metric& m : out) {
    std::printf("  %-36s %14s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("  %-36s %14s %s\n", "fail_frac", number(failFrac).c_str(), "ratio");

  std::ostringstream context;
  context << "{\"workload\": \"" << config.workload << "\", \"seed\": "
          << config.seed << ", \"trace\": " << (config.trace ? 1 : 0)
          << ", \"nproc\": " << nproc
          << ", \"effective_cores\": " << number(effectiveCores) << ", \"simd\": \""
          << perfbench::buildInfoSimd(
                 mcmcpar::obs::Registry::global().renderPrometheus())
          << "\""
          << ", \"cpu_s\": " << number(cpu) << ", \"wall_s\": " << number(wall)
          << ", \"fail_frac\": " << number(failFrac) << "}";
  std::printf("context %s\n", context.str().c_str());

  std::ostringstream json;
  json << "{\"correct\": " << (record.correct() ? "true" : "false")
       << ", \"attempted\": " << record.attempted
       << ", \"failed\": " << record.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json << (i ? ", " : "") << "\"" << out[i].name << "\": {\"value\": "
         << number(out[i].value) << ", \"unit\": \"" << out[i].unit << "\"}";
  }
  json << "}}";

  std::ofstream(config.outDir + "/" + config.workload + "-seed" +
                std::to_string(config.seed) + "-trace" +
                (config.trace ? "1" : "0") + ".json")
      << "{\"context\": " << context.str() << ", \"result\": " << json.str()
      << "}\n";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return record.correct() ? 0 : 1;
}

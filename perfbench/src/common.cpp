#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

Clock::time_point gProcessStart = Clock::now();

void RunRecord::add(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void RunRecord::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

namespace {

/// A fixed amount of dependent integer work (xorshift steps).
std::uint64_t burn(std::uint64_t steps, std::uint64_t seed) {
  std::uint64_t x = seed | 1u;
  for (std::uint64_t i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

double measureEffectiveCores(unsigned nproc) {
  constexpr std::uint64_t kSteps = 40'000'000;  // ~50 ms on one core
  std::atomic<std::uint64_t> sink{0};
  std::vector<double> single;
  std::vector<double> all;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point a = Clock::now();
    sink += burn(kSteps, static_cast<std::uint64_t>(rep) + 1);
    single.push_back(secondsBetween(a, Clock::now()));

    const Clock::time_point b = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (unsigned t = 0; t < nproc; ++t) {
        threads.emplace_back([&sink, t] { sink += burn(kSteps, t + 7); });
      }
    }
    all.push_back(secondsBetween(b, Clock::now()));
  }
  const double tAll = median(all);
  return tAll > 0.0 ? static_cast<double>(nproc) * median(single) / tAll : 0.0;
}

std::string buildInfoSimd(const std::string& exposition) {
  const std::size_t at = exposition.find("mcmcpar_build_info{");
  if (at == std::string::npos) return "";
  const std::size_t end = exposition.find('}', at);
  const std::size_t label = exposition.find("simd=\"", at);
  if (label == std::string::npos || label > end) return "";
  const std::size_t start = label + 6;
  return exposition.substr(start, exposition.find('"', start) - start);
}

mcmcpar::engine::Problem cellProblem(const mcmcpar::img::ImageF& image,
                                     double radius) {
  mcmcpar::engine::Problem problem;
  problem.filtered = &image;
  problem.prior.radiusMean = radius;
  problem.prior.radiusStd = radius / 8.0;
  problem.prior.radiusMin = radius / 2.0;
  problem.prior.radiusMax = radius * 1.8;
  return problem;
}

std::vector<mcmcpar::model::Circle> toCircles(
    const std::vector<mcmcpar::img::SceneCircle>& truth) {
  std::vector<mcmcpar::model::Circle> out;
  out.reserve(truth.size());
  for (const auto& c : truth) out.push_back({c.x, c.y, c.r});
  return out;
}

double detectF1(const std::vector<mcmcpar::model::Circle>& found,
                const std::vector<mcmcpar::model::Circle>& truth,
                double radius) {
  if (found.empty() && truth.empty()) return 1.0;
  return mcmcpar::analysis::scoreCircles(found, truth, radius / 2.0).f1;
}

// --- JSON -------------------------------------------------------------------

const Json* Json::get(const std::string& key) const {
  const auto it = fields.find(key);
  return it == fields.end() ? nullptr : &it->second;
}

double Json::num(const std::string& key) const {
  const Json* v = get(key);
  if (!v || v->type != Type::Number) {
    throw std::runtime_error("report field '" + key + "' missing or not a number");
  }
  return v->number;
}

std::string Json::str(const std::string& key) const {
  const Json* v = get(key);
  if (!v || v->type != Type::String) {
    throw std::runtime_error("report field '" + key + "' missing or not a string");
  }
  return v->text;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json document() {
    Json v = value();
    skipSpace();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("bad JSON at byte " + std::to_string(pos_) +
                             ": " + why);
  }
  void skipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }
  bool literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Json value() {
    skipSpace();
    if (pos_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[pos_];
    if (c == '{') {
      v.type = Json::Type::Object;
      ++pos_;
      if (consume('}')) return v;
      do {
        skipSpace();
        std::string key = string();
        expect(':');
        v.fields[std::move(key)] = value();
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      v.type = Json::Type::Array;
      ++pos_;
      if (consume(']')) return v;
      do {
        v.items.push_back(value());
      } while (consume(','));
      expect(']');
    } else if (c == '"') {
      v.type = Json::Type::String;
      v.text = string();
    } else if (literal("true") || literal("false")) {
      v.type = Json::Type::Bool;
    } else if (literal("null")) {
      v.type = Json::Type::Null;
    } else {
      v.type = Json::Type::Number;
      const char* begin = s_.c_str() + pos_;
      char* end = nullptr;
      v.number = std::strtod(begin, &end);
      if (end == begin) fail("bad number");
      pos_ += static_cast<std::size_t>(end - begin);
    }
    return v;
  }

  std::string string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        c = s_[pos_++];
        if (c == 'u') {
          pos_ += 4;  // escaped control characters only; keep a placeholder
          c = '?';
        } else if (c == 'n') {
          c = '\n';
        } else if (c == 't') {
          c = '\t';
        }
      }
      out += c;
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json parseJson(const std::string& text) { return JsonParser(text).document(); }

std::vector<mcmcpar::model::Circle> reportCircles(const Json& report) {
  const Json* detail = report.get("circles_detail");
  if (!detail || detail->type != Json::Type::Array) {
    throw std::runtime_error("report has no circles_detail array");
  }
  std::vector<mcmcpar::model::Circle> out;
  for (const Json& item : detail->items) {
    if (item.items.size() != 3) throw std::runtime_error("bad circle triple");
    out.push_back({item.items[0].number, item.items[1].number,
                   item.items[2].number});
  }
  return out;
}

// --- trace ------------------------------------------------------------------

namespace {

struct TraceEvent {
  std::uint64_t tid = 0;
  double ts = 0.0;
  double dur = 0.0;
  std::string key;  ///< "<cat>/<name>"
};

double numberAfter(const std::string& line, const char* field) {
  const std::size_t at = line.find(field);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + std::char_traits<char>::length(field),
                     nullptr);
}

std::string stringAfter(const std::string& line, const char* field) {
  const std::size_t at = line.find(field);
  if (at == std::string::npos) return "";
  const std::size_t start = at + std::char_traits<char>::length(field);
  return line.substr(start, line.find('"', start) - start);
}

}  // namespace

SpanTable drainTrace(const std::string& path) {
  const std::string json = mcmcpar::obs::Tracer::global().drainJson();
  {
    std::ofstream out(path, std::ios::binary);
    out << json;
  }
  // The tracer writes one event per line: {"ph": "X", "pid": 1, "tid": N,
  // "ts": T, "dur": D, "cat": "C", "name": "N"...}.
  std::map<std::uint64_t, std::vector<TraceEvent>> byThread;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string cat = stringAfter(line, "\"cat\": \"");
    if (cat.rfind(kSpanPrefix, 0) != 0) continue;
    TraceEvent e;
    e.tid = static_cast<std::uint64_t>(numberAfter(line, "\"tid\": "));
    e.ts = numberAfter(line, "\"ts\": ");
    e.dur = numberAfter(line, "\"dur\": ");
    e.key = cat + "/" + stringAfter(line, "\"name\": \"");
    byThread[e.tid].push_back(std::move(e));
  }

  SpanTable table;
  for (auto& [tid, events] : byThread) {
    // Parents first: earlier start, then longer duration.
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
              });
    std::vector<double> childCover(events.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < events.size(); ++i) {
      while (!stack.empty() &&
             events[stack.back()].ts + events[stack.back()].dur <=
                 events[i].ts) {
        stack.pop_back();
      }
      if (!stack.empty()) childCover[stack.back()] += events[i].dur;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      SpanTotals& totals = table[events[i].key];
      const double self = std::max(0.0, events[i].dur - childCover[i]) * 1e-6;
      totals.selfSeconds += self;
      totals.selfSamples.push_back(self);
    }
  }
  return table;
}

}  // namespace perfbench

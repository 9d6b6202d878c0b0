#include "serve/watch.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "engine/options.hpp"
#include "img/pnm_io.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace fs = std::filesystem;

namespace mcmcpar::serve {

namespace {

constexpr const char* kManifestSuffix = ".manifest";
constexpr const char* kResultSuffix = ".result.json";

std::string resultPathFor(const std::string& manifestPath) {
  return manifestPath + kResultSuffix;
}

/// Write `text` atomically: temp file in the same directory, then rename,
/// so spool consumers never observe a half-written result. A failed write
/// is reported on stderr (a full disk must not pass silently — the
/// producer would poll for a result that never comes).
void writeAtomically(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << text;
    out.flush();
    if (!out) {
      std::fprintf(stderr, "mcmcpar_serve: cannot write %s\n", tmp.c_str());
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::fprintf(stderr, "mcmcpar_serve: cannot rename %s -> %s: %s\n",
                 tmp.c_str(), path.c_str(), ec.message().c_str());
  }
}

}  // namespace

WatchFrontend::WatchFrontend(Server& server, std::string directory,
                             unsigned pollMillis)
    : server_(server),
      directory_(std::move(directory)),
      poll_(std::max(1u, pollMillis)) {
  poller_ = std::jthread(
      [this](const std::stop_token& stop) { pollLoop(stop); });
}

WatchFrontend::~WatchFrontend() { stop(); }

void WatchFrontend::stop() {
  if (poller_.joinable()) {
    poller_.request_stop();
    poller_.join();
  }
  settle();  // flush results whose jobs already finished
}

void WatchFrontend::pollLoop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    scan();
    settle();
    // Sleep in small slices so stop() returns promptly even with a long
    // poll interval.
    auto remaining = poll_;
    while (remaining.count() > 0 && !stop.stop_requested()) {
      const auto slice = std::min(remaining, std::chrono::milliseconds(50));
      std::this_thread::sleep_for(slice);
      remaining -= slice;
    }
  }
}

void WatchFrontend::scan() {
  std::error_code ec;
  fs::directory_iterator it(directory_, ec);
  if (ec) return;  // directory vanished; keep polling
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string path = entry.path().string();
    if (path.size() < std::string(kManifestSuffix).size() ||
        !path.ends_with(kManifestSuffix)) {
      continue;
    }
    if (processed_.count(path) != 0) continue;
    if (fs::exists(resultPathFor(path), ec)) {
      processed_.insert(path);  // already served in an earlier life
      continue;
    }

    // Ingest only once size+mtime held still for one poll, so a writer
    // that streams the file in place cannot be read half-written.
    Candidate now;
    now.size = entry.file_size(ec);
    if (ec) continue;
    now.mtimeNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      entry.last_write_time(ec).time_since_epoch())
                      .count();
    if (ec) continue;
    const auto seen = candidates_.find(path);
    if (seen == candidates_.end() || seen->second.mtimeNs != now.mtimeNs ||
        seen->second.size != now.size) {
      candidates_[path] = now;
      continue;
    }
    candidates_.erase(seen);
    processed_.insert(path);
    ingest(path);
  }
}

void WatchFrontend::ingest(const std::string& path) {
  std::vector<engine::ManifestEntry> entries;
  try {
    std::ifstream in(path);
    if (!in) throw engine::EngineError("cannot open " + path);
    entries = engine::parseBatchManifest(in);
  } catch (const std::exception& e) {
    writeAtomically(resultPathFor(path),
                    std::string("{\"manifest\": \"") +
                        obs::jsonEscape(path) + "\", \"error\": \"" +
                        obs::jsonEscape(e.what()) + "\"}\n");
    return;
  }

  PendingFile pendingFile;
  pendingFile.path = path;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    try {
      pendingFile.jobs.push_back(server_.submit(entries[i]));
    } catch (const std::exception& e) {
      pendingFile.admissionErrors.push_back("job " + std::to_string(i) +
                                            ": " + e.what());
    }
  }
  if (pendingFile.jobs.empty()) {
    std::string errors;
    for (const std::string& error : pendingFile.admissionErrors) {
      if (!errors.empty()) errors += "; ";
      errors += error;
    }
    writeAtomically(resultPathFor(path),
                    std::string("{\"manifest\": \"") +
                        obs::jsonEscape(path) + "\", \"error\": \"" +
                        obs::jsonEscape(errors) + "\"}\n");
    return;
  }
  pending_.push_back(std::move(pendingFile));
}

void WatchFrontend::settle() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    bool allTerminal = true;
    for (const std::uint64_t id : it->jobs) {
      const std::optional<JobStatus> status = server_.status(id);
      if (status && !isTerminal(status->state)) {
        allTerminal = false;
        break;
      }
    }
    if (!allTerminal) {
      ++it;
      continue;
    }

    std::ostringstream out;
    std::size_t done = 0, failed = 0, cancelled = 0;
    out << "{\"manifest\": \"" << obs::jsonEscape(it->path) << "\",\n"
        << " \"jobs\": [\n";
    for (std::size_t i = 0; i < it->jobs.size(); ++i) {
      const std::uint64_t id = it->jobs[i];
      const std::optional<JobStatus> status = server_.status(id);
      const std::optional<engine::RunReport> report = server_.result(id);
      if (status && report) {
        out << "  " << protocol::jobJson(*status, *report);
        done += status->state == JobState::Done;
        failed += status->state == JobState::Failed;
        cancelled += status->state == JobState::Cancelled;
      } else {
        out << "  {\"id\": " << id << ", \"state\": \"unknown\"}";
      }
      out << (i + 1 < it->jobs.size() ? ",\n" : "\n");
    }
    out << " ],\n";
    if (!it->admissionErrors.empty()) {
      // Jobs the server rejected at admission never ran; they surface here
      // (and count as failures) instead of silently vanishing.
      out << " \"admission_errors\": [";
      for (std::size_t i = 0; i < it->admissionErrors.size(); ++i) {
        out << (i == 0 ? "" : ", ") << "\""
            << obs::jsonEscape(it->admissionErrors[i]) << "\"";
      }
      out << "],\n";
      failed += it->admissionErrors.size();
    }
    out << " \"completed\": " << done << ",\n"
        << " \"failed\": " << failed << ",\n"
        << " \"cancelled\": " << cancelled << "\n}\n";
    writeAtomically(resultPathFor(it->path), out.str());
    it = pending_.erase(it);
  }
}

}  // namespace mcmcpar::serve

#include "src/obs/trace.h"

#include <atomic>
#include <map>

#include "src/support/clock.h"
#include "src/support/strings.h"

namespace polynima::obs {

namespace {

std::atomic<int> g_next_lane{0};

}  // namespace

int CurrentThreadLane() {
  thread_local int lane = g_next_lane.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

TraceSink::TraceSink() : epoch_ns_(polynima::NowNs()) {}

uint64_t TraceSink::NowNs() const { return polynima::NowNs() - epoch_ns_; }

void TraceSink::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

json::Value TraceSink::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Array trace_events;
  trace_events.reserve(events_.size() + 8);
  std::map<int, bool> lanes;
  for (const TraceEvent& e : events_) {
    lanes[e.lane] = true;
    json::Object ev;
    ev["name"] = e.name;
    ev["cat"] = e.category;
    ev["ph"] = "X";
    // Chrome expects microseconds; keep ns precision in the fraction.
    ev["ts"] = static_cast<double>(e.start_ns) / 1000.0;
    ev["dur"] = static_cast<double>(e.duration_ns) / 1000.0;
    ev["pid"] = 1;
    ev["tid"] = e.lane;
    if (!e.args.empty()) {
      json::Object args;
      for (const auto& [key, value] : e.args) {
        args[key] = value;
      }
      ev["args"] = std::move(args);
    }
    trace_events.push_back(std::move(ev));
  }
  for (const auto& [lane, unused] : lanes) {
    json::Object meta;
    meta["name"] = "thread_name";
    meta["ph"] = "M";
    meta["pid"] = 1;
    meta["tid"] = lane;
    json::Object args;
    args["name"] = lane == 0 ? std::string("main") : StrCat("worker-", lane);
    meta["args"] = std::move(args);
    trace_events.push_back(std::move(meta));
  }
  json::Object doc;
  doc["traceEvents"] = std::move(trace_events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

Status TraceSink::WriteTo(const std::string& path) const {
  return json::WriteFile(path, ToJson());
}

}  // namespace polynima::obs

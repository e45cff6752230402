#include "src/analyze/analyze.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/clock.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace polynima::analyze {

namespace {

}  // namespace

AnalysisResult AnalyzeProgram(const lift::LiftedProgram& program,
                              const AnalyzeOptions& options) {
  AnalysisResult result;
  if (program.module == nullptr) {
    return result;
  }
  obs::Span span(options.obs.trace, "analyze", "static-concurrency");
  uint64_t start = NowNs();

  std::vector<const ir::Function*> functions;
  for (const auto& [addr, fn] : program.functions_by_entry) {
    (void)addr;
    functions.push_back(fn);
  }
  result.functions = static_cast<int>(functions.size());

  // Per-function escape pass on the shared thread pool. Results land in a
  // pre-sized vector, so workers never touch shared state.
  std::vector<EscapeResult> per_function(functions.size());
  ThreadPool pool(ThreadPool::ResolveJobs(options.jobs));
  const obs::Session& obs = options.obs;
  pool.ParallelFor(functions.size(), [&](size_t i) {
    uint64_t t0 = NowNs();
    check::RegionDeriver deriver(*functions[i], program.externals);
    per_function[i] = AnalyzeEscapes(*functions[i], *program.module, deriver,
                                     program.externals);
    obs.Observe(obs::Histogram::kAnalyzeFunctionNs, NowNs() - t0);
    return Status::Ok();
  });

  for (size_t i = 0; i < functions.size(); ++i) {
    EscapeResult& er = per_function[i];
    result.accesses += static_cast<int>(er.accesses.size());
    result.stack_local += er.stack_local;
    result.heap_local += er.heap_local;
    result.shared += er.shared;
    result.alloc_sites += static_cast<int>(er.sites.size());
    result.escaped_sites += er.EscapedSiteCount();
    for (const SiteInfo& s : er.sites) {
      if (s.escaped) {
        result.site_summaries.push_back(
            StrCat(functions[i]->name(), "@", HexString(s.guest_address),
                   ": alloc escapes (", s.reason, ")"));
      }
    }
    if (er.stack_escaped) {
      result.site_summaries.push_back(StrCat(functions[i]->name(),
                                             ": frame escapes (",
                                             er.stack_escape_reason, ")"));
    }
    result.escapes.emplace(functions[i], std::move(er));
  }

  result.races = DetectRaces(program, result.escapes);
  for (const RacePair& p : result.races.pairs) {
    result.site_summaries.push_back(
        StrCat("race: ", p.a.function, "@", HexString(p.a.guest_address),
               (p.a.is_write ? " W" : " R"), " <-> ", p.b.function, "@",
               HexString(p.b.guest_address), (p.b.is_write ? " W" : " R"),
               " (", p.reason, ")"));
  }

  result.analyze_ns = static_cast<int64_t>(NowNs() - start);

  obs.Add(obs::Counter::kAnalyzeAccessesClassified,
          static_cast<uint64_t>(result.accesses));
  obs.Add(obs::Counter::kAnalyzeStackLocal,
          static_cast<uint64_t>(result.stack_local));
  obs.Add(obs::Counter::kAnalyzeHeapLocal,
          static_cast<uint64_t>(result.heap_local));
  obs.Add(obs::Counter::kAnalyzeShared,
          static_cast<uint64_t>(result.shared));
  obs.Add(obs::Counter::kAnalyzeEscapedSites,
          static_cast<uint64_t>(result.escaped_sites));
  obs.Add(obs::Counter::kAnalyzeRacePairs,
          static_cast<uint64_t>(result.races.pairs.size()));
  span.Arg("functions", static_cast<int64_t>(result.functions));
  span.Arg("race_pairs", static_cast<int64_t>(result.races.pairs.size()));
  return result;
}

std::string AnalysisResult::Summary() const {
  std::string out = StrCat(
      "analyze: ", functions, " functions, ", accesses, " accesses (",
      stack_local, " stack-local, ", heap_local, " heap-local, ", shared,
      " shared), ", alloc_sites, " alloc sites (", escaped_sites,
      " escaped), ", races.pairs.size(), " race pair",
      races.pairs.size() == 1 ? "" : "s");
  if (races.conservative_roots) {
    out += " [conservative roots]";
  }
  if (races.truncated) {
    out += " [truncated]";
  }
  if (heap_witnesses > 0 || fences_elided > 0) {
    out += StrCat("; ", heap_witnesses, " heap witnesses, ", fences_elided,
                  " fences elided statically");
  }
  return out;
}

json::Value AnalysisResult::ToJson() const {
  json::Object doc;
  doc["schema"] = "polynima-analyze/v1";
  doc["functions"] = functions;
  doc["accesses"] = accesses;
  doc["stack_local"] = stack_local;
  doc["heap_local"] = heap_local;
  doc["shared"] = shared;
  doc["alloc_sites"] = alloc_sites;
  doc["escaped_sites"] = escaped_sites;
  doc["heap_witnesses"] = heap_witnesses;
  doc["fences_elided_static"] = fences_elided;
  doc["analyze_ns"] = analyze_ns;
  doc["thread_roots"] = races.thread_roots;
  doc["candidate_accesses"] = races.candidate_accesses;
  doc["conservative_roots"] = races.conservative_roots;
  doc["truncated"] = races.truncated;
  json::Array pairs;
  for (const RacePair& p : races.pairs) {
    json::Object pair;
    auto side = [](const RaceAccess& a) {
      json::Object o;
      o["function"] = a.function;
      o["guest_address"] = a.guest_address;
      o["write"] = a.is_write;
      o["atomic"] = a.is_atomic;
      return o;
    };
    pair["a"] = side(p.a);
    pair["b"] = side(p.b);
    pair["reason"] = p.reason;
    pairs.push_back(std::move(pair));
  }
  doc["race_pairs"] = std::move(pairs);
  return doc;
}

check::StaticCert MakeStaticCert(const AnalysisResult& result,
                                 const binary::Image& image) {
  check::StaticCert cert;
  cert.binary_key = check::BinaryKey(image);
  cert.functions_analyzed = result.functions;
  cert.alloc_sites = result.alloc_sites;
  cert.escaped_sites = result.escaped_sites;
  cert.heap_witnesses = result.heap_witnesses;
  cert.shared_accesses = result.shared;
  cert.race_pairs = static_cast<int>(result.races.pairs.size());
  cert.site_summaries = result.site_summaries;
  cert.Seal();
  return cert;
}

}  // namespace polynima::analyze

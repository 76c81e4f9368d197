// Layer probes of the traced run. A workload's own operation mix reaches
// only some of xqc's modules; the probes call the remaining modules'
// public entry points on that workload's own documents and query texts,
// so every per-layer metric is measured on every workload. Per-layer
// metrics take a layer's figure from the mix when the mix has it and from
// the probes otherwise (Ledger::LayerUs).
#ifndef XQBENCH_PROBES_H_
#define XQBENCH_PROBES_H_

#include <string>
#include <vector>

#include "common.h"

namespace xqc {
class DocumentStore;
}

namespace xqbench {

struct ProbeDoc {
  std::string uri;   // doc('uri') in the texts
  std::string path;  // the file on disk
};

struct ProbeText {
  std::string key;
  std::string text;      // refers to documents by doc(uri) / collection
  std::string expected;  // serialized result every path must produce
};

struct ProbeInputs {
  std::vector<ProbeDoc> docs;
  std::vector<ProbeText> texts;
  xqc::DocumentStore* store = nullptr;  // resolves fn:collection texts
};

enum Probe : unsigned {
  kProbeXml = 1,      // ParseXml of each document's text
  kProbeEngine = 2,   // phase chain + Prepare/Execute/serialize per text
  kProbeInterp = 4,   // the Core interpreter per text
  kProbeStore = 8,    // DocumentStore::Load cold: parse, then snapshot
  kProbeServing = 16, // QueryService::Run in-process and the same texts
                      // over xqc_httpd, alternated; then never-seen texts
                      // (plan-cache misses) and POST /invalidate
};

void RunProbes(const Options& o, const ProbeInputs& in, unsigned which,
               Ledger* ledger, Tracer* tracer, RunResult* res);

/// Rewrites a query that declares `$name external` to bind it to
/// doc('uri') instead, for paths that cannot bind variables (HTTP).
std::string BindToDoc(const std::string& text, const std::string& name,
                      const std::string& uri);

/// The per-layer metrics every traced run reports, from its ledger.
void LayerMetrics(const Ledger& ledger, RunResult* res);

}  // namespace xqbench

#endif  // XQBENCH_PROBES_H_

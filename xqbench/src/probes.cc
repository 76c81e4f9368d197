#include "probes.h"

#include "pipeline.h"
#include "server.h"
#include "src/net/http_client.h"
#include "src/service/query_service.h"
#include "src/store/document_store.h"
#include "src/xml/xml_parser.h"

namespace xqbench {

namespace {

int Reps(const Options& o) { return o.smoke ? 1 : 5; }

void ProbeXml(const Options& o, const ProbeInputs& in, Ledger* ledger,
              Tracer* tracer, RunResult* res) {
  for (const ProbeDoc& d : in.docs) {
    std::string text;
    if (!ReadFile(d.path, &text)) {
      res->Fail("cannot read " + d.path);
      return;
    }
    const int item = ledger->Item("probe.xml." + d.uri, true);
    for (int r = 0; r < Reps(o); r++) {
      tracer->request++;
      const int64_t t0 = NowNs();
      xqc::Result<xqc::NodePtr> doc = [&] {
        ScopedSpan span(tracer, "xml.parse");
        return xqc::ParseXml(text);
      }();
      res->attempted++;
      if (!doc.ok()) {
        res->failed++;
        continue;
      }
      ledger->Record(item, static_cast<double>(NowNs() - t0) / 1e3, tracer);
      ledger->at(item).counts["xml.bytes"] = static_cast<double>(text.size());
    }
  }
}

void ProbeQueries(const Options& o, const ProbeInputs& in, bool interp,
                  Ledger* ledger, Tracer* tracer, RunResult* res) {
  xqc::Engine engine;
  const xqc::EngineOptions opts =
      ConfigOptions(interp ? Config::kNoAlgebra : Config::kOptimXQueryJoin);
  std::vector<std::pair<std::string, xqc::NodePtr>> docs;
  for (const ProbeDoc& d : in.docs) {
    xqc::Result<xqc::NodePtr> doc = xqc::ParseXmlFile(d.path);
    if (!doc.ok()) {
      res->Fail("probe parse " + d.path + ": " + doc.status().ToString());
      return;
    }
    docs.emplace_back(d.uri, doc.take());
  }
  for (const ProbeText& t : in.texts) {
    const int item = ledger->Item(
        std::string(interp ? "probe.interp." : "probe.engine.") + t.key, true);
    for (int r = 0; r < Reps(o); r++) {
      tracer->request++;
      xqc::DynamicContext ctx;
      for (const auto& [uri, doc] : docs) ctx.RegisterDocument(uri, doc);
      if (in.store != nullptr) ctx.set_document_store(in.store);
      ChainResult chain;
      if (!interp) {
        xqc::Status st = RunPhaseChain(t.text, opts, tracer, &chain);
        if (!st.ok()) res->Fail(t.key + " chain: " + st.ToString());
      }
      QueryOutcome out;
      res->attempted++;
      ItemSeries* series = interp ? nullptr : &ledger->at(item);
      // The interpreter probe's Prepare runs without the phase chain, so
      // it is kept out of engine.prepare (the chain's consistency check).
      xqc::Status st = RunQueryOp(engine, t.text, opts, &ctx, tracer,
                                  !interp && r == 0, series, &out,
                                  interp ? "interp.prepare" : "engine.prepare");
      if (!st.ok()) {
        res->failed++;
        continue;
      }
      if (out.output != t.expected) {
        res->Fail(t.key + (interp ? " interpreter" : " engine") +
                  " output differs from the expected result");
      }
      if (!interp && r == 0) {
        const std::string bad = CheckChainPlan(chain, out);
        if (!bad.empty()) res->Fail(t.key + ": " + bad);
        series->counts["compile.plan_ops"] = chain.compile_ops;
        series->counts["opt.plan_ops"] = chain.opt_ops;
      }
      ledger->Record(item, out.wall_us, tracer);
    }
  }
}

void ProbeStore(const Options& o, const ProbeInputs& in, Ledger* ledger,
                Tracer* tracer, RunResult* res) {
  const std::string snap_dir = o.work_dir + "/probe_snapshots";
  RemoveTree(snap_dir);
  xqc::DocumentStoreOptions so;
  so.snapshot_dir = snap_dir;
  xqc::DocumentStore store(so);
  for (const ProbeDoc& d : in.docs) {
    if (!store.Load(d.path).ok()) res->Fail("store load " + d.path);
  }
  const int parse_item = ledger->Item("probe.store.parse", true);
  const int snap_item = ledger->Item("probe.store.snapshot", true);
  for (int r = 0; r < Reps(o); r++) {
    for (bool snapshots : {false, true}) {
      store.DropMemoryCache();
      SettleHeap();
      tracer->request++;
      const int64_t t0 = NowNs();
      for (const ProbeDoc& d : in.docs) {
        xqc::DocumentStore::LoadOptions lo;
        lo.use_snapshots = snapshots;
        ScopedSpan span(tracer, snapshots ? "store.load_snapshot"
                                          : "store.load_parse");
        res->attempted++;
        if (!store.Load(d.path, lo).ok()) res->failed++;
      }
      ledger->Record(snapshots ? snap_item : parse_item,
                     static_cast<double>(NowNs() - t0) / 1e3, tracer);
    }
  }
  RemoveTree(snap_dir);
}

/// The texts through an in-process QueryService and over HTTP, alternated
/// request by request so both see the same host phase; net.overhead_us is
/// the per-text difference of their p10s. Both sides have one worker.
void ProbeServing(const Options& o, const ProbeInputs& in, Ledger* ledger,
                  Tracer* tracer, RunResult* res) {
  xqc::ServiceOptions so;
  so.num_threads = 1;
  so.document_store = in.store;
  xqc::QueryService service(so);
  for (const ProbeDoc& d : in.docs) {
    xqc::Result<xqc::NodePtr> doc = xqc::ParseXmlFile(d.path);
    if (!doc.ok()) {
      res->Fail("probe parse " + d.path);
      return;
    }
    service.RegisterDocument(d.uri, doc.take());
  }
  HttpdProcess server;
  std::vector<std::string> args = {"--threads", "1", "--deadline-ms", "60000"};
  for (const ProbeDoc& d : in.docs) {
    args.push_back("--register");
    args.push_back(d.uri + "=" + d.path);
  }
  std::string err;
  if (!server.Start(o.httpd, args, &err)) {
    res->Fail(err);
    return;
  }
  xqc::HttpClient client;
  if (!client.Connect("127.0.0.1", server.port()).ok()) {
    res->Fail("probe: cannot connect to xqc_httpd");
    return;
  }
  double overhead = 0;
  for (const ProbeText& t : in.texts) {
    const int svc_item = ledger->Item("probe.service." + t.key, true);
    const int net_item = ledger->Item("probe.net." + t.key, true);
    for (int r = 0; r < Reps(o) + 1; r++) {  // r == 0 fills the plan caches
      tracer->request++;
      xqc::QueryRequest req;
      req.query_text = t.text;
      int64_t bound_ns = 0;
      req.bind_context = [&bound_ns](xqc::DynamicContext*) {
        bound_ns = NowNs();
      };
      int64_t t0 = NowNs();
      xqc::QueryResponse resp;
      {
        ScopedSpan span(tracer, "service.run");
        resp = service.Run(std::move(req));
        if (bound_ns > t0) tracer->Add("service.queue_wait", t0, bound_ns);
      }
      int64_t t1 = NowNs();
      res->attempted++;
      if (!resp.status.ok()) {
        res->failed++;
      } else if (resp.result != t.expected) {
        res->Fail(t.key + " QueryService result differs from expected");
      } else if (r > 0) {
        ledger->Record(svc_item, static_cast<double>(t1 - t0) / 1e3, tracer);
      }

      tracer->request++;
      xqc::HttpResponse http;
      t0 = NowNs();
      xqc::Status st;
      {
        ScopedSpan span(tracer, "net.request");
        st = client.Request("POST", "/query", {}, t.text, &http, 60000);
      }
      t1 = NowNs();
      res->attempted++;
      if (o.fault == "http-body" && r == 0) http.body += " ";
      if (!st.ok() || http.status != 200) {
        res->failed++;
      } else if (http.body != t.expected) {
        res->Fail(t.key + " HTTP body differs from the in-process result");
      } else if (r > 0) {
        ledger->Record(net_item, static_cast<double>(t1 - t0) / 1e3, tracer);
      }
    }
    overhead += Quantile(ledger->at(net_item).wall_us, kItemQuantile) -
                Quantile(ledger->at(svc_item).wall_us, kItemQuantile);
  }
  service.Shutdown();
  res->metrics["net.overhead_us"] = overhead;
  // Never-seen texts, each a plan-cache miss and a compile, with a closed
  // form answer: sum_{i=1..N} i*K = K*N*(N+1)/2. Then every text's plan is
  // invalidated, a write beside the reads.
  const int miss_item = ledger->Item("probe.net.miss", true);
  for (int r = 0; r < Reps(o); r++) {
    const int64_t n = 500 + r;
    const int64_t k = 1 + static_cast<int64_t>(o.seed % 97);
    const std::string text = "sum(for $i in 1 to " + std::to_string(n) +
                             " return $i * " + std::to_string(k) + ")";
    tracer->request++;
    xqc::HttpResponse http;
    const int64_t t0 = NowNs();
    xqc::Status st;
    {
      ScopedSpan span(tracer, "net.request");
      st = client.Request("POST", "/query", {}, text, &http, 60000);
    }
    const int64_t t1 = NowNs();
    res->attempted++;
    if (!st.ok() || http.status != 200) {
      res->failed++;
    } else if (http.body != std::to_string(k * n * (n + 1) / 2)) {
      res->Fail(text + " returned " + http.body);
    } else {
      ledger->Record(miss_item, static_cast<double>(t1 - t0) / 1e3, tracer);
    }
  }
  for (const ProbeText& t : in.texts) {
    xqc::HttpResponse http;
    res->attempted++;
    if (!client.Request("POST", "/invalidate", {}, t.text, &http, 60000)
             .ok() ||
        http.status != 200) {
      res->failed++;
    } else if (http.body.rfind("{\"invalidated\": ", 0) != 0) {
      res->Fail("unexpected /invalidate reply: " + http.body);
    }
  }
  xqc::HttpResponse stats;
  if (client.Request("GET", "/stats", {}, "", &stats).ok()) {
    const double hits = StatsField(stats.body, "plan_cache", "hits");
    const double misses = StatsField(stats.body, "plan_cache", "misses");
    res->metrics["service.plan_cache_hit_pct"] =
        hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0;
    res->metrics["service.plan_cache_compiles"] =
        StatsField(stats.body, "plan_cache", "compiles");
    res->metrics["service.plan_cache_invalidations"] =
        StatsField(stats.body, "plan_cache", "invalidations");
    res->metrics["service.plan_cache_evictions"] =
        StatsField(stats.body, "plan_cache", "evictions");
    res->metrics["net.requests"] = StatsField(stats.body, "http", "requests");
    res->metrics["net.bytes_out"] = StatsField(stats.body, "http", "bytes_out");
  }
  client.Close();
  const int code = server.Stop();
  if (code != 0) {
    res->Fail("xqc_httpd exited " + std::to_string(code) + " after SIGTERM");
  }
}

/// Parse throughput over the items whose xml.parse figure LayerUs uses.
double ParseMbPerS(const Ledger& ledger) {
  for (bool probe : {false, true}) {
    double us = 0, bytes = 0;
    for (const ItemSeries& s : ledger.items()) {
      auto it = s.layer_us.find("xml.parse");
      auto b = s.counts.find("xml.bytes");
      if (s.probe != probe || it == s.layer_us.end() || b == s.counts.end()) {
        continue;
      }
      us += Quantile(it->second, kItemQuantile);
      bytes += b->second;
    }
    if (us > 0) return bytes / us;  // bytes per us = MB per s
  }
  return 0;
}

}  // namespace

void RunProbes(const Options& o, const ProbeInputs& in, unsigned which,
               Ledger* ledger, Tracer* tracer, RunResult* res) {
  if (which & kProbeXml) ProbeXml(o, in, ledger, tracer, res);
  if (which & kProbeEngine) ProbeQueries(o, in, false, ledger, tracer, res);
  if (which & kProbeInterp) ProbeQueries(o, in, true, ledger, tracer, res);
  if (which & kProbeStore) ProbeStore(o, in, ledger, tracer, res);
  if (which & kProbeServing) ProbeServing(o, in, ledger, tracer, res);
}

std::string BindToDoc(const std::string& text, const std::string& name,
                      const std::string& uri) {
  const std::string decl = "declare variable $" + name + " external;";
  const size_t at = text.find(decl);
  if (at == std::string::npos) return text;
  return text.substr(0, at) + "declare variable $" + name + " := doc(\"" +
         uri + "\");" + text.substr(at + decl.size());
}

void LayerMetrics(const Ledger& ledger, RunResult* res) {
  auto& m = res->metrics;
  m["xml.parse_ms"] = ledger.LayerUs("xml.parse") / 1e3;
  m["xml.parse_mb_per_s"] = ParseMbPerS(ledger);
  m["xml.serialize_ms"] = ledger.LayerUs("xml.serialize") / 1e3;
  m["xquery.parse_us"] = ledger.LayerUs("xquery.parse");
  m["xquery.normalize_us"] = ledger.LayerUs("xquery.normalize");
  m["compile.compile_us"] = ledger.LayerUs("compile.compile");
  m["opt.optimize_us"] = ledger.LayerUs("opt.optimize");
  m["opt.annotate_us"] = ledger.LayerUs("opt.annotate");
  m["engine.prepare_us"] = ledger.LayerUs("engine.prepare");
  m["runtime.execute_ms"] = ledger.LayerUs("runtime.execute") / 1e3;
  m["interp.execute_ms"] = ledger.LayerUs("interp.execute") / 1e3;
  m["store.load_parse_ms"] = ledger.LayerUs("store.load_parse") / 1e3;
  m["store.load_snapshot_ms"] = ledger.LayerUs("store.load_snapshot") / 1e3;
  m["service.run_us"] = ledger.LayerUs("service.run");
  m["service.queue_wait_us"] = ledger.LayerUs("service.queue_wait");
  for (const char* key :
       {"compile.plan_ops", "opt.plan_ops", "runtime.source_tuples",
        "runtime.hash_joins", "runtime.nested_loop_joins",
        "runtime.join_index_reuses", "runtime.group_bys",
        "runtime.guard_steps", "runtime.ddo_sorts",
        "runtime.parallel_partitions", "runtime.parallel_steals",
        "runtime.parallel_fallbacks", "store.misses", "store.snapshot_hits",
        "store.hits", "store.collection_reorders", "opt.rule.remove_map",
        "opt.rule.insert_product", "opt.rule.insert_join",
        "opt.rule.insert_group_by", "opt.rule.map_through_group_by",
        "opt.rule.remove_duplicate_null", "opt.rule.insert_outer_join",
        "opt.rule.split_select", "opt.rule.index_to_index_step",
        "opt.rule.fuse_path_step", "opt.rule.collapse_descendant"}) {
    m[key] = ledger.Count(key);
  }
  m["trace.round_ms"] = ledger.RoundUs() / 1e3;
}

}  // namespace xqbench

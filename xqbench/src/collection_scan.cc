// collection_scan: an fn:collection predicate scan with constructed results
// over a directory of generated XMark documents, through a DocumentStore
// with a snapshot directory, at parallelism min(nproc, 4). One round is
// three scans: cold with the memory cache dropped and snapshots off (every
// member is parsed), cold from snapshots, and warm. The store, the XML
// parser, the snapshot tier and src/runtime/parallel do almost all the work
// here and none in the paper rows.
//
// Set-up writes the corpus. The first scan's output is the reference:
// its result count must match the XML text, and every later scan -- parse,
// snapshot or warm, at parallelism 1 and N -- must reproduce it byte for
// byte. The first cold snapshot scan publishes the members' snapshots.
#include <algorithm>
#include <cstdio>

#include "oracle.h"
#include "pipeline.h"
#include "probes.h"
#include "workloads.h"
#include "src/store/document_store.h"
#include "src/xmark/xmark.h"
#include "src/xml/xml_parser.h"

namespace xqbench {

namespace {

enum class Scan { kColdParse, kColdSnapshot, kWarm };

}  // namespace

RunResult RunCollectionScan(const Options& o, Ledger* ledger, Tracer* tracer) {
  RunResult res;
  const int members = o.smoke ? 4 : 16;
  const size_t member_bytes = o.smoke ? 32 << 10 : 256 << 10;
  const int parallelism = std::clamp(o.nproc, 1, 4);

  // ---- set-up: the corpus ---------------------------------------------------
  const std::string dir = o.work_dir + "/scan";
  const std::string corpus = dir + "/corpus";
  RemoveTree(dir);
  MakeDirs(corpus);
  std::vector<std::string> texts;
  for (int i = 0; i < members; i++) {
    xqc::XMarkOptions xo;
    xo.seed = o.seed * 1000 + static_cast<uint64_t>(i);
    xo.target_bytes = member_bytes;
    texts.push_back(xqc::GenerateXMarkXml(xo));
    char name[32];
    std::snprintf(name, sizeof(name), "/m%02d.xml", i);
    if (!WriteFile(corpus + name, texts.back())) {
      res.Fail("cannot write the corpus");
      return res;
    }
  }
  xqc::DocumentStoreOptions so;
  so.snapshot_dir = dir + "/snapshots";
  xqc::DocumentStore store(so);
  const std::string query =
      "for $a in fn:collection(\"" + corpus +
      "\")//closed_auction where $a/price > 40 "
      "return <result buyer=\"{$a/buyer/@person}\">{$a/price/text()}</result>";

  xqc::Engine engine;
  auto options = [&](Scan s, int par) {
    xqc::EngineOptions e = ConfigOptions(Config::kOptimXQueryJoin);
    e.parallelism = par;
    e.use_snapshots = s != Scan::kColdParse;
    return e;
  };
  auto scan = [&](Scan s, int par, ItemSeries* series, QueryOutcome* out) {
    if (s != Scan::kWarm) {
      store.DropMemoryCache();
      SettleHeap();
    }
    xqc::DynamicContext ctx;
    ctx.set_document_store(&store);
    return RunQueryOp(engine, query, options(s, par), &ctx, tracer, false,
                      series, out);
  };
  const int64_t setup_end_ns = NowNs();
  if (o.setup_only) {
    res.setup_end_ns = setup_end_ns;
    return res;
  }

  // ---- the round ----------------------------------------------------------
  const std::pair<Scan, const char*> kScans[] = {
      {Scan::kColdParse, "scan.cold_parse"},
      {Scan::kColdSnapshot, "scan.cold_snapshot"},
      {Scan::kWarm, "scan.warm"}};
  int scan_item[3];
  for (int i = 0; i < 3; i++) scan_item[i] = ledger->Item(kScans[i].second);
  // Traced only: the store loads and the parser alone, member by member.
  const int load_parse = ledger->Item("store.load_parse", true);
  const int load_snap = ledger->Item("store.load_snapshot", true);
  const int xml_parse = ledger->Item("xml.parse", true);
  std::string reference;
  bool have_reference = false;
  xqc::Status st;

  const int64_t window = NowNs();
  ColdSetups cold(o, window);
  for (int round = 0; AnotherRound(o, window, round); round++) {
    cold.MaybeSample(&res);
    for (int i = 0; i < 3; i++) {
      tracer->request++;
      ItemSeries& series = ledger->at(scan_item[i]);
      if (tracer->enabled) {
        // The chain is compared with the Prepare inside the scan, which
        // runs after the cache drop: drop first (the scan's own drop then
        // finds nothing), and one untraced Prepare, so both run warm.
        if (kScans[i].first != Scan::kWarm) {
          store.DropMemoryCache();
          SettleHeap();
        }
        engine.Prepare(query, options(kScans[i].first, parallelism));
        ChainResult chain;
        st = RunPhaseChain(query, options(kScans[i].first, parallelism),
                           tracer, &chain);
        if (!st.ok()) res.Fail("scan chain: " + st.ToString());
        series.counts["compile.plan_ops"] = chain.compile_ops;
        series.counts["opt.plan_ops"] = chain.opt_ops;
      }
      QueryOutcome out;
      res.attempted++;
      st = scan(kScans[i].first, parallelism, &series, &out);
      if (!st.ok()) {
        res.failed++;
        continue;
      }
      if (!have_reference) {
        reference = out.output;
        have_reference = true;
      } else if (out.output != reference) {
        res.Fail(series.name + " output differs from the first scan's");
      }
      // compile_ms counts each distinct text once: the warm scan's Prepare.
      if (kScans[i].first == Scan::kWarm) {
        series.prepare_us.push_back(out.prepare_us);
      }
      ledger->Record(scan_item[i], out.wall_us, tracer);
    }
    if (!tracer->enabled) continue;
    for (bool snapshots : {false, true}) {
      store.DropMemoryCache();
      SettleHeap();
      tracer->request++;
      const int64_t t0 = NowNs();
      for (int m = 0; m < members; m++) {
        char name[32];
        std::snprintf(name, sizeof(name), "/m%02d.xml", m);
        xqc::DocumentStore::LoadOptions lo;
        lo.use_snapshots = snapshots;
        ScopedSpan span(tracer, snapshots ? "store.load_snapshot"
                                          : "store.load_parse");
        res.attempted++;
        if (!store.Load(corpus + name, lo).ok()) res.failed++;
      }
      ledger->Record(snapshots ? load_snap : load_parse,
                     static_cast<double>(NowNs() - t0) / 1e3, tracer);
    }
    tracer->request++;
    std::vector<xqc::NodePtr> parsed;  // freed after timing, as the store keeps trees
    const int64_t t0 = NowNs();
    for (const std::string& text : texts) {
      xqc::Result<xqc::NodePtr> doc = [&] {
        ScopedSpan span(tracer, "xml.parse");
        return xqc::ParseXml(text);
      }();
      res.attempted++;
      if (doc.ok()) {
        parsed.push_back(doc.take());
      } else {
        res.failed++;
      }
    }
    ledger->Record(xml_parse, static_cast<double>(NowNs() - t0) / 1e3, tracer);
    parsed.clear();
    SettleHeap();
    double bytes = 0;
    for (const std::string& text : texts) bytes += static_cast<double>(text.size());
    ledger->at(xml_parse).counts["xml.bytes"] = bytes;
  }

  // ---- checks and figures ----------------------------------------------------
  if (!have_reference) {
    res.Fail("no scan ran to completion");
    RemoveTree(dir);
    return res;
  }
  int64_t expected_results = 0;
  for (const std::string& text : texts) {
    expected_results += XMarkFactsFromText(text).closed_price_gt40;
  }
  if (o.fault == "expected") expected_results++;
  const int64_t got = CountOccurrences(reference, "<result ");
  if (got != expected_results) {
    res.Fail("scan returned " + std::to_string(got) +
             " results; the XML text has " + std::to_string(expected_results) +
             " closed auctions with price > 40");
  }
  auto p10 = [&](int item) {
    return Quantile(ledger->at(item).wall_us, kItemQuantile);
  };
  res.summary["scan.cold_parse_ms"] = p10(scan_item[0]) / 1e3;
  res.summary["scan.cold_snapshot_ms"] = p10(scan_item[1]) / 1e3;
  res.summary["scan.warm_ms"] = p10(scan_item[2]) / 1e3;
  res.summary["scan.parallelism"] = parallelism;
  // Every scan at parallelism 1 and N must reproduce the reference. The
  // untraced run repeats them, alternated so both see the same host phase,
  // for the README's cold-scan scaling figures.
  const int reps = o.smoke || tracer->enabled ? 1 : 6;
  std::vector<double> at[3][2];
  for (int rep = 0; rep < reps; rep++) {
    for (int i = 0; i < 3; i++) {
      for (int k = 0; k < 2; k++) {
        const int par = k == 0 ? 1 : parallelism;
        QueryOutcome out;
        res.attempted++;
        if (!scan(kScans[i].first, par, nullptr, &out).ok()) {
          res.failed++;
          continue;
        }
        if (out.output != reference) {
          res.Fail(std::string(kScans[i].second) + " at parallelism " +
                   std::to_string(par) + " differs from the first scan");
        }
        at[i][k].push_back(out.wall_us);
      }
    }
  }
  if (reps > 1) {
    for (int i = 0; i < 3; i++) {
      const std::string name = kScans[i].second;
      res.summary[name + "_p1_ms"] = Quantile(at[i][0], kItemQuantile) / 1e3;
      res.summary[name + "_pN_ms"] = Quantile(at[i][1], kItemQuantile) / 1e3;
    }
  }

  if (!tracer->enabled) {
    res.summary["setup_own_s"] =
        static_cast<double>(setup_end_ns - o.start_ns) / 1e9;
    CommonMetrics(*ledger, cold.Finish(&res), PeakRssMb(), &res);
    RemoveTree(dir);
    return res;
  }
  // Layers the mix does not reach: QueryService, HTTP and the interpreter,
  // on the same scan text (the interpreter is the independent oracle).
  ProbeInputs in;
  in.texts.push_back({"scan", query, reference});
  in.store = &store;
  RunProbes(o, in, kProbeInterp | kProbeServing, ledger, tracer,
            &res);
  RemoveTree(dir);
  return res;
}

}  // namespace xqbench

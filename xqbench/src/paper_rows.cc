// The paper's own results, one workload per headline row, so that a change
// in any row moves that workload's round_ms by the row's full size:
//
//   xmark_xqjoin     Table 3, OptimXQueryJoin, XMark 256 KB
//   xmark_nljoin     Table 3, OptimNLJoin, XMark 64 KB
//   xmark_nooptim    Table 3, AlgebraNoOptim, XMark 64 KB
//   xmark_noalgebra  Table 3, NoAlgebra (the Core interpreter), XMark 64 KB
//   clio             Table 5, Clio N2..N4 under OptimXQueryJoin, DBLP 250 KB
//
// One round of a Table 3 row parses the document, then prepares, executes
// and serializes Q1..Q20 on it; one round of the Table 5 row runs N2..N4
// on the parsed DBLP document. The baseline rows use the smaller document:
// their cost grows quadratically or faster with its size, and a round must
// stay short enough for a hundred rounds per run.
//
// Set-up generates the inputs, parses the document once and prepares every
// text once. The first round's outputs are the
// reference every later round must reproduce byte for byte; after the
// window they are checked against answers read off the XML text and
// against another configuration on a 64 KB document of the same kind (the
// interpreter for the algebraic rows, OptimXQueryJoin for NoAlgebra).
#include <algorithm>
#include <cstdio>

#include "oracle.h"
#include "pipeline.h"
#include "probes.h"
#include "workloads.h"
#include "src/clio/clio.h"
#include "src/xmark/xmark.h"
#include "src/xml/xml_parser.h"

namespace xqbench {

namespace {

struct RowSpec {
  const char* workload;
  Config config;
  bool clio;
  size_t bytes;
};

constexpr size_t kCheckBytes = 64 << 10;

constexpr RowSpec kRows[] = {
    {"xmark_xqjoin", Config::kOptimXQueryJoin, false, 256 << 10},
    {"xmark_nljoin", Config::kOptimNLJoin, false, kCheckBytes},
    {"xmark_nooptim", Config::kAlgebraNoOptim, false, kCheckBytes},
    {"xmark_noalgebra", Config::kNoAlgebra, false, kCheckBytes},
    {"clio", Config::kOptimXQueryJoin, true, 250 << 10},
};

struct Text {
  std::string key;   // Q01..Q20, N2..N4
  std::string text;  // declares $auction or $dblp external
};

std::vector<Text> RowTexts(bool clio) {
  std::vector<Text> out;
  if (clio) {
    for (int n = 2; n <= 4; n++) {
      out.push_back({"N" + std::to_string(n), xqc::ClioQuery(n)});
    }
    return out;
  }
  for (int q = 1; q <= 20; q++) {
    char key[8];
    std::snprintf(key, sizeof(key), "Q%02d", q);
    out.push_back({key, xqc::XMarkQuery(q)});
  }
  return out;
}

std::string Generate(bool clio, uint64_t seed, size_t bytes) {
  if (clio) {
    xqc::ClioOptions co;
    co.seed = seed;
    co.target_bytes = bytes;
    return xqc::GenerateDblpXml(co);
  }
  xqc::XMarkOptions xo;
  xo.seed = seed;
  xo.target_bytes = bytes;
  return xqc::GenerateXMarkXml(xo);
}

/// Every text once under `c` on the document `xml`; failures go to `res`.
std::vector<std::string> RunTexts(const xqc::Engine& engine,
                                  const std::vector<Text>& texts, Config c,
                                  const std::string& xml,
                                  const xqc::Symbol& var, RunResult* res) {
  std::vector<std::string> out(texts.size());
  xqc::Result<xqc::NodePtr> doc = xqc::ParseXml(xml);
  if (!doc.ok()) {
    res->Fail("generated document does not parse");
    return out;
  }
  xqc::DynamicContext ctx;
  ctx.BindVariable(var, {xqc::Item(doc.value())});
  for (size_t i = 0; i < texts.size(); i++) {
    QueryOutcome o;
    xqc::Status st = RunQueryOp(engine, texts[i].text, ConfigOptions(c), &ctx,
                                nullptr, false, nullptr, &o);
    if (!st.ok()) {
      res->Fail(std::string(ConfigName(c)) + " " + texts[i].key + ": " +
                st.ToString());
    }
    out[i] = o.output;
  }
  return out;
}

/// The answers the XML text determines: Q1, Q5, Q6, Q7, Q20 of XMark, or
/// the <pub> count every Clio query emits.
void CheckText(const RowSpec& spec, const std::vector<Text>& texts,
               const std::vector<std::string>& outputs,
               const std::string& xml, const Options& o, RunResult* res) {
  if (spec.clio) {
    int64_t pubs = ClioPubCount(xml);
    if (o.fault == "expected") pubs++;
    for (size_t i = 0; i < texts.size(); i++) {
      const int64_t got = CountOccurrences(outputs[i], "<pub>");
      if (got != pubs) {
        res->Fail("Clio " + texts[i].key + " emits " + std::to_string(got) +
                  " <pub> elements, the XML text says " + std::to_string(pubs));
      }
    }
    return;
  }
  XMarkFacts f = XMarkFactsFromText(xml);
  if (o.fault == "expected") f.closed_price_ge40++;
  for (int q : {1, 5, 6, 7, 20}) {
    const std::string& got = outputs[static_cast<size_t>(q - 1)];
    if (got != ExpectedXMarkOutput(q, f)) {
      res->Fail("XMark Q" + std::to_string(q) + " = '" + got.substr(0, 80) +
                "', the XML text says '" + ExpectedXMarkOutput(q, f) + "'");
    }
  }
}

}  // namespace

bool IsPaperRow(const std::string& workload) {
  for (const RowSpec& r : kRows) {
    if (workload == r.workload) return true;
  }
  return false;
}

RunResult RunPaperRow(const Options& o, Ledger* ledger, Tracer* tracer) {
  RunResult res;
  const RowSpec* found = nullptr;
  for (const RowSpec& r : kRows) {
    if (o.workload == r.workload) found = &r;
  }
  const RowSpec& spec = *found;
  const size_t bytes =
      o.smoke ? std::max<size_t>(spec.bytes / 8, 16 << 10) : spec.bytes;
  const xqc::Symbol var(spec.clio ? "dblp" : "auction");
  const std::vector<Text> texts = RowTexts(spec.clio);
  const xqc::EngineOptions options = ConfigOptions(spec.config);

  // ---- set-up ---------------------------------------------------------------
  // The inputs: the row's document, and the 64 KB document the
  // cross-configuration check runs on when the row's is larger. Then what a
  // user pays before the first query: the document parsed (kept for Clio,
  // whose rounds share it) and every text prepared once.
  const std::string xml = Generate(spec.clio, o.seed, bytes);
  const bool own_doc = bytes <= kCheckBytes;
  const std::string check_xml =
      own_doc ? xml : Generate(spec.clio, o.seed, o.smoke ? bytes : kCheckBytes);
  xqc::Engine engine;
  xqc::NodePtr dblp;
  {
    xqc::Result<xqc::NodePtr> doc = xqc::ParseXml(xml);
    if (!doc.ok()) {
      res.Fail("generated document does not parse");
      res.attempted = 1;
      return res;
    }
    if (spec.clio) dblp = doc.take();
  }
  for (const Text& t : texts) {
    if (!engine.Prepare(t.text, options).ok()) res.Fail(t.key + " does not prepare");
  }
  const int64_t setup_end_ns = NowNs();
  if (!res.correct) {
    res.attempted = 1;
    return res;
  }
  if (o.setup_only) {
    res.setup_end_ns = setup_end_ns;
    return res;
  }
  SettleHeap();

  // ---- the round ----------------------------------------------------------
  const int parse_item =
      spec.clio ? -1
                : ledger->Item(std::string("parse.") + ConfigName(spec.config));
  std::vector<int> query_item;
  for (const Text& t : texts) {
    query_item.push_back(
        ledger->Item(std::string(ConfigName(spec.config)) + "." + t.key));
  }
  // The first round's outputs: every later round must reproduce them.
  std::vector<std::string> reference(texts.size());
  std::vector<bool> have_reference(texts.size(), false);
  std::vector<bool> plan_checked(texts.size(), false);

  auto run_query = [&](size_t i, xqc::DynamicContext* ctx) {
    tracer->request++;
    ItemSeries& series = ledger->at(query_item[i]);
    ChainResult chain;
    const bool check_plan = tracer->enabled && !plan_checked[i];
    if (tracer->enabled) {
      xqc::Status st = RunPhaseChain(texts[i].text, options, tracer, &chain);
      if (!st.ok()) res.Fail(series.name + " chain: " + st.ToString());
      series.counts["compile.plan_ops"] = chain.compile_ops;
      series.counts["opt.plan_ops"] = chain.opt_ops;
    }
    QueryOutcome out;
    res.attempted++;
    xqc::Status st = RunQueryOp(engine, texts[i].text, options, ctx, tracer,
                                check_plan, &series, &out);
    if (!st.ok()) {
      res.failed++;
      return;
    }
    if (!have_reference[i]) {
      reference[i] = out.output;
      have_reference[i] = true;
    } else if (out.output != reference[i]) {
      res.Fail(series.name + " output changed");
    }
    if (check_plan) {
      const std::string bad = CheckChainPlan(chain, out);
      if (!bad.empty()) res.Fail(series.name + ": " + bad);
      plan_checked[i] = true;
    }
    series.prepare_us.push_back(out.prepare_us);
    ledger->Record(query_item[i], out.wall_us, tracer);
  };
  auto run_round = [&] {
    xqc::DynamicContext ctx;
    if (spec.clio) {
      ctx.BindVariable(var, {xqc::Item(dblp)});
    } else {
      tracer->request++;
      const int64_t t0 = NowNs();
      xqc::Result<xqc::NodePtr> doc = [&] {
        ScopedSpan span(tracer, "xml.parse");
        return xqc::ParseXml(xml);
      }();
      res.attempted++;
      if (!doc.ok()) {
        res.failed++;
        return;
      }
      ledger->Record(parse_item, static_cast<double>(NowNs() - t0) / 1e3,
                     tracer);
      ledger->at(parse_item).counts["xml.bytes"] =
          static_cast<double>(xml.size());
      ctx.BindVariable(var, {xqc::Item(doc.value())});
    }
    for (size_t i = 0; i < texts.size(); i++) run_query(i, &ctx);
  };

  const int64_t window = NowNs();
  ColdSetups cold(o, window);
  for (int round = 0; AnotherRound(o, window, round); round++) {
    cold.MaybeSample(&res);
    RoundCpu cpu(window);
    run_round();
    SettleHeap();  // the round's tree was freed on return
  }

  // ---- checks -----------------------------------------------------------------
  for (size_t i = 0; i < texts.size(); i++) {
    if (!have_reference[i]) {
      res.Fail(texts[i].key + " never ran to completion");
      return res;
    }
  }
  CheckText(spec, texts, reference, xml, o, &res);
  // Byte identity with another configuration on a 64 KB document.
  const Config other = spec.config == Config::kNoAlgebra
                           ? Config::kOptimXQueryJoin
                           : Config::kNoAlgebra;
  const std::vector<std::string> mine =
      own_doc ? reference
              : RunTexts(engine, texts, spec.config, check_xml, var, &res);
  const std::vector<std::string> theirs =
      RunTexts(engine, texts, other, check_xml, var, &res);
  for (size_t i = 0; i < texts.size(); i++) {
    if (mine[i] != theirs[i]) {
      res.Fail(texts[i].key + ": " + ConfigName(spec.config) + " and " +
               ConfigName(other) + " outputs differ");
    }
  }
  if (!own_doc) CheckText(spec, texts, mine, check_xml, o, &res);

  // ---- figures --------------------------------------------------------------
  std::vector<double> per_query;
  for (int item : query_item) {
    per_query.push_back(Quantile(ledger->at(item).wall_us, kItemQuantile));
  }
  res.summary["queries_geomean_us"] = GeoMean(per_query);
  if (!spec.clio) {
    res.summary["parse_share"] =
        Quantile(ledger->at(parse_item).wall_us, kItemQuantile) /
        ledger->RoundUs();
  }
  if (!tracer->enabled) {
    res.summary["setup_own_s"] =
        static_cast<double>(setup_end_ns - o.start_ns) / 1e9;
    CommonMetrics(*ledger, cold.Finish(&res), PeakRssMb(), &res);
    return res;
  }

  // Layers the mix does not reach, on this workload's own inputs: the
  // store, QueryService and HTTP on the row's document; the interpreter
  // (or, for NoAlgebra, the algebraic engine) on the 64 KB check document;
  // for Clio, whose round does not parse, the XML parser.
  const std::string dir = o.work_dir + "/row";
  RemoveTree(dir);
  MakeDirs(dir);
  const std::string uri = spec.clio ? "dblp.xml" : "auction.xml";
  ProbeInputs own, check;
  own.docs = {{uri, dir + "/" + uri}};
  check.docs = {{uri, dir + "/check_" + uri}};
  WriteFile(own.docs[0].path, xml);
  WriteFile(check.docs[0].path, check_xml);
  for (size_t i = 0; i < texts.size(); i++) {
    const std::string bound = BindToDoc(texts[i].text, var.str(), uri);
    own.texts.push_back({texts[i].key, bound, reference[i]});
    check.texts.push_back({texts[i].key, bound, mine[i]});
  }
  RunProbes(o, own, kProbeStore | kProbeServing | (spec.clio ? kProbeXml : 0),
            ledger, tracer, &res);
  RunProbes(o, check,
            spec.config == Config::kNoAlgebra ? kProbeEngine : kProbeInterp,
            ledger, tracer, &res);
  RemoveTree(dir);
  return res;
}

}  // namespace xqbench

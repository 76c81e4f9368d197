#include "pipeline.h"

#include "src/opt/ddo_infer.h"
#include "src/opt/parallel_infer.h"
#include "src/xml/serializer.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"

namespace xqbench {

const char* ConfigName(Config c) {
  switch (c) {
    case Config::kNoAlgebra:
      return "NoAlgebra";
    case Config::kAlgebraNoOptim:
      return "AlgebraNoOptim";
    case Config::kOptimNLJoin:
      return "OptimNLJoin";
    case Config::kOptimXQueryJoin:
      return "OptimXQueryJoin";
  }
  return "?";
}

xqc::EngineOptions ConfigOptions(Config c) {
  xqc::EngineOptions o;
  o.use_algebra = c != Config::kNoAlgebra;
  o.optimize = c == Config::kOptimNLJoin || c == Config::kOptimXQueryJoin;
  o.join_impl = c == Config::kOptimXQueryJoin ? xqc::JoinImpl::kHash
                                              : xqc::JoinImpl::kNestedLoop;
  return o;
}

namespace {

int CountOps(const xqc::Op& op) {
  int n = 1;
  for (const xqc::OpPtr& d : op.deps) n += d ? CountOps(*d) : 0;
  for (const xqc::OpPtr& i : op.inputs) n += i ? CountOps(*i) : 0;
  return n;
}

int CountQueryOps(const xqc::CompiledQuery& q) {
  int n = q.plan ? CountOps(*q.plan) : 0;
  for (const auto& [name, plan] : q.globals) n += plan ? CountOps(*plan) : 0;
  for (const auto& [name, fn] : q.functions) n += fn.plan ? CountOps(*fn.plan) : 0;
  return n;
}

void RecordCounters(const xqc::PreparedQuery& q, ItemSeries* s) {
  const xqc::ExecStats e = q.last_exec_stats();
  auto& c = s->counts;
  c["runtime.source_tuples"] = static_cast<double>(e.source_tuples);
  c["runtime.hash_joins"] = static_cast<double>(e.hash_joins);
  c["runtime.nested_loop_joins"] = static_cast<double>(e.nested_loop_joins);
  c["runtime.join_index_reuses"] = static_cast<double>(e.join_index_reuses);
  c["runtime.group_bys"] = static_cast<double>(e.group_bys);
  c["runtime.guard_steps"] = static_cast<double>(e.guard_steps);
  c["runtime.ddo_sorts"] = static_cast<double>(e.tree_join.ddo_sorts);
  c["runtime.parallel_partitions"] =
      static_cast<double>(e.parallel_partitions);
  c["runtime.parallel_steals"] = static_cast<double>(e.parallel_steals);
  c["runtime.parallel_fallbacks"] = static_cast<double>(e.parallel_fallbacks);
  c["store.misses"] = static_cast<double>(e.doc_store.misses);
  c["store.snapshot_hits"] = static_cast<double>(e.doc_store.snapshot_hits);
  c["store.hits"] = static_cast<double>(e.doc_store.hits);
  c["store.collection_reorders"] =
      static_cast<double>(e.doc_store.collection_reorders);
  const xqc::OptimizerStats& o = q.optimizer_stats();
  c["opt.rule.remove_map"] = o.remove_map;
  c["opt.rule.insert_product"] = o.insert_product;
  c["opt.rule.insert_join"] = o.insert_join;
  c["opt.rule.insert_group_by"] = o.insert_group_by;
  c["opt.rule.map_through_group_by"] = o.map_through_group_by;
  c["opt.rule.remove_duplicate_null"] = o.remove_duplicate_null;
  c["opt.rule.insert_outer_join"] = o.insert_outer_join;
  c["opt.rule.split_select"] = o.split_select;
  c["opt.rule.index_to_index_step"] = o.index_to_index_step;
  c["opt.rule.fuse_path_step"] = o.fuse_path_step;
  c["opt.rule.collapse_descendant"] = o.collapse_descendant;
}

}  // namespace

xqc::Status RunPhaseChain(const std::string& text,
                          const xqc::EngineOptions& options, Tracer* tracer,
                          ChainResult* out) {
  xqc::Query parsed;
  {
    ScopedSpan span(tracer, "xquery.parse");
    xqc::QueryGuard guard(options.limits, options.cancel);
    XQC_ASSIGN_OR_RETURN(parsed, xqc::ParseXQuery(text, &guard));
  }
  xqc::Query core;
  {
    ScopedSpan span(tracer, "xquery.normalize");
    XQC_ASSIGN_OR_RETURN(core, xqc::NormalizeQuery(parsed));
    xqc::HoistLeadingLets(&core);
    if (options.optimize) xqc::HoistNestedReturnBlocks(&core);
  }
  xqc::CompiledQuery compiled;
  {
    ScopedSpan span(tracer, "compile.compile");
    XQC_ASSIGN_OR_RETURN(compiled, xqc::CompileQuery(core));
  }
  out->compile_ops = CountQueryOps(compiled);
  if (options.optimize) {
    ScopedSpan span(tracer, "opt.optimize");
    xqc::OptimizeQuery(&compiled);
  }
  {
    ScopedSpan span(tracer, "opt.annotate");
    xqc::AnnotateDdoQuery(&compiled);
    xqc::AnalyzeParallel(&compiled);
  }
  out->opt_ops = CountQueryOps(compiled);
  out->plan = xqc::OpToString(*compiled.plan, true);
  return xqc::Status::OK();
}

xqc::Status RunQueryOp(const xqc::Engine& engine, const std::string& text,
                       const xqc::EngineOptions& options,
                       xqc::DynamicContext* ctx, Tracer* tracer,
                       bool want_explain, ItemSeries* series,
                       QueryOutcome* out, const char* prepare_span) {
  const int64_t t0 = NowNs();
  xqc::Result<xqc::PreparedQuery> q = [&] {
    ScopedSpan span(tracer, prepare_span);
    return engine.Prepare(text, options);
  }();
  const int64_t t1 = NowNs();
  if (!q.ok()) return q.status();
  xqc::Result<xqc::Sequence> r = [&] {
    ScopedSpan span(tracer, options.use_algebra ? "runtime.execute"
                                                : "interp.execute");
    return q.value().Execute(ctx);
  }();
  if (!r.ok()) return r.status();
  {
    ScopedSpan span(tracer, "xml.serialize");
    out->output = xqc::SerializeSequence(r.value());
  }
  const int64_t t2 = NowNs();
  out->prepare_us = static_cast<double>(t1 - t0) / 1e3;
  out->wall_us = static_cast<double>(t2 - t0) / 1e3;
  if (want_explain) out->explain = q.value().ExplainPlan(true);
  if (series != nullptr) RecordCounters(q.value(), series);
  return xqc::Status::OK();
}

std::string CheckChainPlan(const ChainResult& chain,
                           const QueryOutcome& outcome) {
  if (chain.plan == outcome.explain) return "";
  return "traced phase chain plan differs from PreparedQuery::ExplainPlan";
}

}  // namespace xqbench

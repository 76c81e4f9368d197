// Calls into xqc's public per-module functions, wrapped in spans: the
// traced phase chain that mirrors Engine::Prepare, and one timed query
// operation (prepare, execute, serialize) as every workload runs it.
#ifndef XQBENCH_PIPELINE_H_
#define XQBENCH_PIPELINE_H_

#include <string>

#include "common.h"
#include "src/engine/engine.h"

namespace xqbench {

/// The four configurations of the paper's Table 3.
enum class Config { kNoAlgebra, kAlgebraNoOptim, kOptimNLJoin, kOptimXQueryJoin };
const char* ConfigName(Config c);
xqc::EngineOptions ConfigOptions(Config c);

struct ChainResult {
  std::string plan;   // OpToString(pretty) of the main plan
  int compile_ops = 0;
  int opt_ops = 0;
};

/// ParseXQuery -> NormalizeQuery -> hoists -> CompileQuery ->
/// OptimizeQuery -> AnnotateDdoQuery -> AnalyzeParallel, each phase in its
/// own span (xquery.parse, xquery.normalize, compile.compile,
/// opt.optimize, opt.annotate).
xqc::Status RunPhaseChain(const std::string& text,
                          const xqc::EngineOptions& options, Tracer* tracer,
                          ChainResult* out);

/// What one query operation produced.
struct QueryOutcome {
  std::string output;      // serialized result
  double prepare_us = 0;   // Engine::Prepare
  double wall_us = 0;      // prepare + execute + serialize
  std::string explain;     // ExplainPlan(pretty), when asked for
};

/// Prepares, executes and serializes `text`; spans `prepare_span`,
/// runtime.execute (or interp.execute) and xml.serialize. Per-item
/// counters of the op go to `series` when it is non-null.
xqc::Status RunQueryOp(const xqc::Engine& engine, const std::string& text,
                       const xqc::EngineOptions& options,
                       xqc::DynamicContext* ctx, Tracer* tracer,
                       bool want_explain, ItemSeries* series,
                       QueryOutcome* out,
                       const char* prepare_span = "engine.prepare");

/// The traced run's consistency checks for one item: the chain prints the
/// plan ExplainPlan prints. Returns "" or a description of the mismatch.
std::string CheckChainPlan(const ChainResult& chain,
                           const QueryOutcome& outcome);

}  // namespace xqbench

#endif  // XQBENCH_PIPELINE_H_

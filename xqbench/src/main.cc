// xqbench: measures xqc from outside, one workload per process.
//
//   xqbench --workload W --seed N --seconds S --trace 0|1 --httpd PATH
//           --work DIR [--smoke] [--fault expected|http-body]
//
// W is one of xmark_xqjoin, xmark_nljoin, xmark_nooptim, xmark_noalgebra,
// clio and collection_scan. xqc_httpd (PATH) serves the traced run's
// serving probe.
//   xqbench --selftest
//   xqbench ... --setup-only   (a cold set-up sample: prints the
//                               steady-clock time its set-up ended)
//
// Prints one JSON line {"correct", "attempted", "failed", "metrics":
// {name: value}}; run.py attaches units from BENCHMARK.json. Also writes
// DIR/<workload>.trace<k>.json (per-item figures) and, traced,
// DIR/<workload>.spans.jsonl. Exit code 0 only when every check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include "oracle.h"
#include "probes.h"
#include "workloads.h"

extern char** environ;

namespace xqbench {

namespace {

/// Cold set-ups per untraced run: enough for a steady kItemQuantile.
constexpr int kColdSetupSamples = 30;

}  // namespace

ColdSetups::ColdSetups(const Options& o, int64_t window_start_ns)
    : o_(o),
      window_start_ns_(window_start_ns),
      planned_(o.trace || o.setup_only ? 0
               : o.smoke               ? 2
                                       : kColdSetupSamples) {}

void ColdSetups::MaybeSample(RunResult* res) {
  const size_t taken = samples_s_.size();
  if (taken >= static_cast<size_t>(planned_)) return;
  // Sample k is due at k / planned_ of the window.
  const double due_s =
      o_.smoke ? 0 : o_.seconds * static_cast<double>(taken) / planned_;
  if (static_cast<double>(NowNs() - window_start_ns_) / 1e9 >= due_s) {
    Sample(res);
  }
}

double ColdSetups::Finish(RunResult* res) {
  while (res->correct && samples_s_.size() < static_cast<size_t>(planned_)) {
    Sample(res);
  }
  res->summary["setup_p50_s"] = Quantile(samples_s_, 0.5);
  return Quantile(samples_s_, kItemQuantile);
}

void ColdSetups::Sample(RunResult* res) {
  const std::string work = o_.work_dir + "/cold_setup";
  RemoveTree(work);
  std::vector<std::string> args = {
      "/proc/self/exe", "--workload", o_.workload, "--seed",
      std::to_string(o_.seed), "--seconds", "0", "--trace", "0", "--httpd",
      o_.httpd, "--work", work, "--setup-only"};
  if (o_.smoke) args.push_back("--smoke");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    res->Fail("cold set-up: no pipe");
    return;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  pid_t pid = 0;
  const int64_t t0 = NowNs();
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  int status = -1;
  if (rc == 0) {
    char buf[256];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof(buf))) != 0) {
      if (n > 0) out.append(buf, static_cast<size_t>(n));
      else if (errno != EINTR) break;
    }
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  close(fds[0]);
  RemoveTree(work);
  const int64_t end_ns = std::atoll(out.c_str());
  if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      end_ns <= t0) {
    res->Fail("a cold set-up process failed");
    return;
  }
  samples_s_.push_back(static_cast<double>(end_ns - t0) / 1e9);
}

bool AnotherRound(const Options& o, int64_t window_start_ns, int rounds_done) {
  if (o.smoke) return rounds_done < kSmokeRounds;
  if (rounds_done == 0) return true;
  return static_cast<double>(NowNs() - window_start_ns) / 1e9 < o.seconds;
}

void CommonMetrics(const Ledger& ledger, double setup_s, double peak_rss_mb,
                   RunResult* res) {
  auto& m = res->metrics;
  m["round_ms"] = ledger.RoundUs() / 1e3;
  m["geomean_us"] = ledger.GeoMeanUs();
  m["compile_ms"] = ledger.PrepareUs() / 1e3;
  m["setup_s"] = setup_s;
  m["peak_rss_mb"] = peak_rss_mb;
}

namespace {

/// Traced-run checks and figures beyond the layer metrics.
void TraceMetrics(const Ledger& ledger, const Tracer& tracer, RunResult* res) {
  LayerMetrics(ledger, res);
  res->metrics["trace.spans"] = static_cast<double>(tracer.spans.size());
  // The phase chain's spans must add up to Engine::Prepare (which also
  // deep-copies the plan) within kChainTolerance, both taken from the same
  // operations: the mix's when it runs the chain, else the probes'.
  constexpr double kChainTolerance = 0.35;
  double ratio = 0;
  for (bool probe : {false, true}) {
    double chain = 0, prepare = 0;
    for (const ItemSeries& s : ledger.items()) {
      auto p = s.layer_us.find("engine.prepare");
      if (s.probe != probe || p == s.layer_us.end() ||
          s.layer_us.count("xquery.parse") == 0) {
        continue;
      }
      prepare += Quantile(p->second, kItemQuantile);
      for (const char* phase : {"xquery.parse", "xquery.normalize",
                                "compile.compile", "opt.optimize",
                                "opt.annotate"}) {
        auto c = s.layer_us.find(phase);
        if (c != s.layer_us.end()) chain += Quantile(c->second, kItemQuantile);
      }
    }
    if (prepare > 0) {
      ratio = chain / prepare;
      break;
    }
  }
  res->metrics["trace.chain_prepare_ratio"] = ratio;
  if (std::fabs(ratio - 1) > kChainTolerance) {
    res->Fail("traced phase chain sums to " + std::to_string(ratio) +
              " x Engine::Prepare");
  }
}

std::string Details(const Options& o, const Ledger& ledger,
                    const RunResult& res) {
  std::string out = "{\"workload\": \"" + o.workload + "\", \"seed\": " +
                    std::to_string(o.seed) + ", \"trace\": " +
                    (o.trace ? "1" : "0") + ",\n \"summary\": {";
  bool first = true;
  for (const auto& [k, v] : res.summary) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out += std::string(first ? "" : ", ") + "\"" + k + "\": " + buf;
    first = false;
  }
  out += "},\n \"items\": [\n";
  first = true;
  for (const ItemSeries& s : ledger.items()) {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"n\": %zu, \"p10_us\": %.3f, "
                  "\"p50_us\": %.3f, \"p01_us\": %.3f, \"prepare_p10_us\": %.3f",
                  JsonEscape(s.name).c_str(), s.wall_us.size(),
                  Quantile(s.wall_us, kItemQuantile), Quantile(s.wall_us, 0.5),
                  Quantile(s.wall_us, 0.01),
                  Quantile(s.prepare_us, kItemQuantile));
    out += std::string(first ? "" : ",\n") + buf + ", \"layer_p10_us\": {";
    // Traced: each layer's p10 for this item, e.g. runtime.execute per
    // query and configuration.
    bool first_layer = true;
    for (const auto& [span, v] : s.layer_us) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.3f", first_layer ? "" : ", ",
                    span.c_str(), Quantile(v, kItemQuantile));
      out += buf;
      first_layer = false;
    }
    out += "}}";
    first = false;
  }
  return out + "\n ]}\n";
}

int SelfTest() {
  int bad = 0;
  auto expect = [&bad](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      bad++;
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };
  expect(near(Quantile({5, 1, 3}, 0.5), 3), "median of odd count");
  expect(near(Quantile({1, 2, 3, 4}, 0.5), 2.5), "median interpolates");
  expect(near(Quantile({10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.1),
              20),
         "p10 on 11 samples");
  expect(near(Quantile({1, 2}, 0.1), 1.1), "p10 interpolates");
  expect(near(Quantile({7}, 0.1), 7), "single sample");
  expect(Quantile({}, 0.5) == 0, "empty quantile");
  expect(near(GeoMean({1, 100}), 10), "geomean of 1 and 100");
  expect(near(GeoMean({2, 8, 4}), 4), "geomean of 2, 8, 4");
  expect(GeoMean({}) == 0, "empty geomean");
  const std::string xml =
      "<site><regions><europe><item id=\"item0\"><description>x"
      "</description></item></europe></regions><people>"
      "<person id=\"person0\"><name>Ann Smith</name><emailaddress>m"
      "</emailaddress><profile income=\"120000.5\"></profile></person>"
      "<person id=\"person1\"><name>Bob</name></person></people>"
      "<closed_auctions><closed_auction><price>40.00</price><annotation>"
      "</annotation></closed_auction><closed_auction><price>40.10</price>"
      "</closed_auction></closed_auctions></site>";
  const XMarkFacts f = XMarkFactsFromText(xml);
  expect(f.person0_name == "Ann Smith", "Q1 fact");
  expect(f.closed_price_ge40 == 2 && f.closed_price_gt40 == 1, "price facts");
  expect(f.items == 1 && f.q7_total == 3, "Q6/Q7 facts");
  expect(f.income_preferred == 1 && f.income_na == 1, "Q20 facts");
  expect(ExpectedXMarkOutput(5, f) == "2", "Q5 expected output");
  expect(ClioPubCount("<inproceedings key=\"a\"><author>X</author><author>X"
                      "</author><author>Y</author></inproceedings>") == 2,
         "Clio pubs count distinct authors");
  expect(BindToDoc("declare variable $a external; $a", "a", "d.xml") ==
             "declare variable $a := doc(\"d.xml\"); $a",
         "BindToDoc");
  std::fprintf(stderr, "selftest: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace xqbench

int main(int argc, char** argv) {
  using namespace xqbench;
  Options o;
  o.start_ns = NowNs();
  // The CPUs this process may run on, not the machine's: a container or
  // taskset may allow fewer.
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    o.nproc = std::max(1, CPU_COUNT(&cpus));
  }
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : "";
    if (a == "--selftest") return SelfTest();
    if (a == "--smoke" || a == "--setup-only") {
      (a == "--smoke" ? o.smoke : o.setup_only) = true;
      continue;
    }
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v);
    else if (a == "--trace") o.trace = std::atoi(v) != 0;
    else if (a == "--httpd") o.httpd = v;
    else if (a == "--work") o.work_dir = v;
    else if (a == "--fault") o.fault = v;
    else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
    i++;
  }
  if (o.work_dir.empty() || o.httpd.empty() ||
      (o.fault != "" && o.fault != "expected" && o.fault != "http-body")) {
    std::fprintf(stderr, "need --work and --httpd; --fault expected|http-body\n");
    return 2;
  }
  MakeDirs(o.work_dir);
  Ledger ledger;
  Tracer tracer;
  tracer.enabled = o.trace;
  RunResult res;
  if (IsPaperRow(o.workload)) {
    res = RunPaperRow(o, &ledger, &tracer);
  } else if (o.workload == "collection_scan") {
    res = RunCollectionScan(o, &ledger, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  if (o.setup_only) {
    if (!res.correct) return 1;
    std::printf("%lld\n", static_cast<long long>(res.setup_end_ns));
    return 0;
  }
  if (o.trace && res.correct) TraceMetrics(ledger, tracer, &res);
  const std::string base = o.work_dir + "/" + o.workload;
  WriteFile(base + (o.trace ? ".trace1.json" : ".trace0.json"),
            Details(o, ledger, res));
  if (o.trace) tracer.Write(base + ".spans.jsonl");
  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  for (const auto& [k, v] : res.summary) {
    std::fprintf(stderr, "  %-40s %.4g\n", k.c_str(), v);
  }
  std::string line = std::string("{\"correct\": ") +
                     (res.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : res.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    line += std::string(first ? "" : ", ") + "\"" + k + "\": " + buf;
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
  return res.correct && res.attempted > 0 ? 0 : 1;
}

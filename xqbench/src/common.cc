#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace xqbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

// ---- Tracer -----------------------------------------------------------------

int Tracer::Open(const char* name) {
  const int id = static_cast<int>(spans.size());
  spans.push_back(Span{name, NowNs(), 0,
                       stack_.empty() ? -1 : stack_.back(), request});
  stack_.push_back(id);
  return id;
}

void Tracer::Close(int id) {
  spans[static_cast<size_t>(id)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns) {
  if (!enabled) return;
  spans.push_back(Span{name, start_ns, end_ns,
                       stack_.empty() ? -1 : stack_.back(), request});
}

std::map<std::string, double> Tracer::TotalsFor(int64_t req) const {
  std::map<std::string, double> out;
  // Spans of one operation are appended contiguously at the tail.
  for (size_t i = spans.size(); i-- > 0;) {
    const Span& s = spans[i];
    if (s.request != req) break;
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::string out;
  out.reserve(spans.size() * 96);
  for (const Span& s : spans) {
    out += "{\"name\": \"";
    out += s.name;
    out += "\", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"end_ns\": " + std::to_string(s.end_ns) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"request\": " + std::to_string(s.request) + "}\n";
  }
  return WriteFile(path, out);
}

// ---- Ledger -----------------------------------------------------------------

int Ledger::Item(const std::string& name, bool probe) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const int id = static_cast<int>(items_.size());
  items_.push_back(ItemSeries{name, probe, {}, {}, {}, {}});
  index_[name] = id;
  return id;
}

void Ledger::Record(int item, double wall_us, const Tracer* tracer) {
  ItemSeries& s = at(item);
  s.wall_us.push_back(wall_us);
  if (tracer != nullptr && tracer->enabled) {
    for (const auto& [name, us] : tracer->TotalsFor(tracer->request)) {
      s.layer_us[name].push_back(us);
    }
  }
}

double Ledger::RoundUs() const {
  double sum = 0;
  for (const ItemSeries& s : items_) {
    if (!s.probe) sum += Quantile(s.wall_us, kItemQuantile);
  }
  return sum;
}

double Ledger::GeoMeanUs() const {
  std::vector<double> v;
  for (const ItemSeries& s : items_) {
    if (!s.probe && !s.wall_us.empty()) {
      v.push_back(Quantile(s.wall_us, kItemQuantile));
    }
  }
  return GeoMean(v);
}

double Ledger::PrepareUs() const {
  double sum = 0;
  for (const ItemSeries& s : items_) {
    sum += Quantile(s.prepare_us, kItemQuantile);
  }
  return sum;
}

double Ledger::LayerUs(const std::string& span) const {
  for (bool probe : {false, true}) {
    double sum = 0;
    for (const ItemSeries& s : items_) {
      if (s.probe != probe) continue;
      auto it = s.layer_us.find(span);
      if (it != s.layer_us.end()) sum += Quantile(it->second, kItemQuantile);
    }
    if (sum > 0) return sum;
  }
  return 0;
}

double Ledger::Count(const std::string& key) const {
  for (bool probe : {false, true}) {
    double sum = 0;
    bool seen = false;
    for (const ItemSeries& s : items_) {
      auto it = s.counts.find(key);
      if (s.probe != probe || it == s.counts.end()) continue;
      sum += it->second;
      seen = true;
    }
    if (seen) return sum;
  }
  return 0;
}

// ---- results ----------------------------------------------------------------

void RunResult::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << data;
  return static_cast<bool>(f);
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

RoundCpu::RoundCpu(int64_t window_start_ns) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int allowed = CPU_COUNT(&saved_);
  if (allowed < 2) return;
  int k = static_cast<int>((NowNs() - window_start_ns) / kCpuSlotNs % allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (!CPU_ISSET(cpu, &saved_) || k-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

RoundCpu::~RoundCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void SettleHeap() {
  // A 64 KB request is served from glibc's large bins, which first sorts
  // every freed chunk; memory stays in the process (unlike malloc_trim).
  void* volatile block = std::malloc(64 << 10);
  std::free(block);
}

}  // namespace xqbench

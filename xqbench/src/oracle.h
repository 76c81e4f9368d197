// Answers computed straight from generated XML text, without xqc's XML
// parser or query engine: plain substring scans over the bytes the
// generators wrote. They check the engine's outputs from outside.
#ifndef XQBENCH_ORACLE_H_
#define XQBENCH_ORACLE_H_

#include <cstdint>
#include <string>

namespace xqbench {

struct XMarkFacts {
  std::string person0_name;     // XMark Q1
  int64_t closed_price_ge40 = 0;  // XMark Q5
  int64_t closed_price_gt40 = 0;  // the collection_scan predicate
  int64_t items = 0;            // XMark Q6 (one regions element)
  int64_t q7_total = 0;         // descriptions + annotations + emails
  int64_t income_preferred = 0;  // XMark Q20 brackets
  int64_t income_standard = 0;
  int64_t income_challenge = 0;
  int64_t income_na = 0;
};

XMarkFacts XMarkFactsFromText(const std::string& xml);

/// The serialized result XMark query `q` must produce, for the queries
/// whose answer the facts determine (1, 5, 6, 7, 20); "" otherwise.
std::string ExpectedXMarkOutput(int q, const XMarkFacts& f);

/// Number of <pub> elements every Clio mapping query (N2..N4) emits: one
/// per (paper, distinct author of the paper).
int64_t ClioPubCount(const std::string& dblp_xml);

/// Non-overlapping occurrences of `needle` in `hay`.
int64_t CountOccurrences(const std::string& hay, const std::string& needle);

}  // namespace xqbench

#endif  // XQBENCH_ORACLE_H_

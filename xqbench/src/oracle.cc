#include "oracle.h"

#include <cstdlib>
#include <set>

namespace xqbench {

namespace {

/// Text between `open` and the next `close` at or after `from`; npos-safe.
std::string Between(const std::string& s, size_t from, const std::string& open,
                    const std::string& close, size_t limit) {
  const size_t a = s.find(open, from);
  if (a == std::string::npos || a >= limit) return "";
  const size_t b = s.find(close, a + open.size());
  if (b == std::string::npos) return "";
  return s.substr(a + open.size(), b - a - open.size());
}

}  // namespace

int64_t CountOccurrences(const std::string& hay, const std::string& needle) {
  int64_t n = 0;
  for (size_t p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + needle.size())) {
    n++;
  }
  return n;
}

XMarkFacts XMarkFactsFromText(const std::string& xml) {
  XMarkFacts f;
  const size_t p0 = xml.find("<person id=\"person0\">");
  if (p0 != std::string::npos) {
    f.person0_name = Between(xml, p0, "<name>", "</name>", std::string::npos);
  }
  for (size_t p = xml.find("<closed_auction>"); p != std::string::npos;
       p = xml.find("<closed_auction>", p + 1)) {
    const size_t end = xml.find("</closed_auction>", p);
    const double price =
        std::atof(Between(xml, p, "<price>", "</price>", end).c_str());
    if (price >= 40) f.closed_price_ge40++;
    if (price > 40) f.closed_price_gt40++;
  }
  f.items = CountOccurrences(xml, "<item id=\"");
  f.q7_total = CountOccurrences(xml, "<description>") +
               CountOccurrences(xml, "<annotation>") +
               CountOccurrences(xml, "<emailaddress>");
  for (size_t p = xml.find("<person id=\""); p != std::string::npos;
       p = xml.find("<person id=\"", p + 1)) {
    const size_t end = xml.find("</person>", p);
    const size_t prof = xml.find("<profile income=\"", p);
    if (prof == std::string::npos || prof > end) {
      f.income_na++;
      continue;
    }
    const double income = std::atof(xml.c_str() + prof + 17);
    if (income >= 100000) {
      f.income_preferred++;
    } else if (income >= 30000) {
      f.income_standard++;
    } else {
      f.income_challenge++;
    }
  }
  return f;
}

std::string ExpectedXMarkOutput(int q, const XMarkFacts& f) {
  switch (q) {
    case 1:
      return f.person0_name;
    case 5:
      return std::to_string(f.closed_price_ge40);
    case 6:
      return std::to_string(f.items);
    case 7:
      return std::to_string(f.q7_total);
    case 20:
      return "<result><preferred>" + std::to_string(f.income_preferred) +
             "</preferred><standard>" + std::to_string(f.income_standard) +
             "</standard><challenge>" + std::to_string(f.income_challenge) +
             "</challenge><na>" + std::to_string(f.income_na) +
             "</na></result>";
    default:
      return "";
  }
}

int64_t ClioPubCount(const std::string& dblp_xml) {
  int64_t n = 0;
  for (size_t p = dblp_xml.find("<inproceedings "); p != std::string::npos;
       p = dblp_xml.find("<inproceedings ", p + 1)) {
    const size_t end = dblp_xml.find("</inproceedings>", p);
    std::set<std::string> authors;
    for (size_t a = dblp_xml.find("<author>", p); a < end;
         a = dblp_xml.find("<author>", a + 1)) {
      authors.insert(Between(dblp_xml, a, "<author>", "</author>", end));
    }
    n += static_cast<int64_t>(authors.size());
  }
  return n;
}

}  // namespace xqbench

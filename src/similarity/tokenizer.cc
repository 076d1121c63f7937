#include "similarity/tokenizer.h"

#include <algorithm>
#include <cctype>
#include <cstddef>

#include "common/string_util.h"

namespace cdb {
namespace {

void SortUnique(std::vector<std::string>& tokens) {
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
}

std::string StripPunct(std::string_view token) {
  size_t begin = 0;
  size_t end = token.size();
  while (begin < end && std::ispunct(static_cast<unsigned char>(token[begin]))) ++begin;
  while (end > begin && std::ispunct(static_cast<unsigned char>(token[end - 1]))) --end;
  return std::string(token.substr(begin, end - begin));
}

}  // namespace

std::vector<std::string> QGramSet(std::string_view s, int q) {
  std::string lower = ToLower(Trim(s));
  std::vector<std::string> grams;
  if (lower.empty()) return grams;
  if (static_cast<int>(lower.size()) < q) {
    grams.push_back(lower);
    return grams;
  }
  grams.reserve(lower.size() - q + 1);
  for (size_t i = 0; i + q <= lower.size(); ++i) {
    grams.push_back(lower.substr(i, q));
  }
  SortUnique(grams);
  return grams;
}

void AppendQGramKeys(std::string_view s, std::vector<int32_t>& out) {
  // Same trim and case folding as QGramSet's ToLower(Trim(s)).
  auto space = [&](size_t i) {
    return std::isspace(static_cast<unsigned char>(s[i])) != 0;
  };
  auto byte = [&](size_t i) {
    return static_cast<int32_t>(std::tolower(static_cast<unsigned char>(s[i])));
  };
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && space(begin)) ++begin;
  while (end > begin && space(end - 1)) --end;
  if (begin == end) return;
  int32_t prev = byte(begin);
  if (end - begin == 1) {
    out.push_back(257 * prev);
    return;
  }
  const size_t first = out.size();
  for (size_t i = begin + 1; i < end; ++i) {
    const int32_t next = byte(i);
    out.push_back(257 * prev + 1 + next);
    prev = next;
  }
  const auto keys = out.begin() + static_cast<std::ptrdiff_t>(first);
  std::sort(keys, out.end());
  out.erase(std::unique(keys, out.end()), out.end());
}

std::vector<std::string> WordTokenSet(std::string_view s) {
  std::vector<std::string> tokens;
  for (const std::string& raw : SplitWhitespace(ToLower(s))) {
    std::string token = StripPunct(raw);
    if (!token.empty()) tokens.push_back(std::move(token));
  }
  SortUnique(tokens);
  return tokens;
}

size_t SortedIntersectionSize(const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace cdb

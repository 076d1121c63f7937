// Tokenizers feeding the similarity functions.
//
// CDB estimates the matching probability of a crowd edge from string
// similarity (Section 4.1). The paper's default is Jaccard over 2-gram sets;
// the appendix (Figures 23-24) also evaluates word-token Jaccard, normalized
// edit distance, and a no-similarity baseline.
#ifndef CDB_SIMILARITY_TOKENIZER_H_
#define CDB_SIMILARITY_TOKENIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cdb {

// Returns the set (sorted, deduplicated) of character q-grams of the
// lowercased string. Strings shorter than q yield a single token equal to the
// whole string, so very short values still compare meaningfully.
std::vector<std::string> QGramSet(std::string_view s, int q);

// Integer keys of the 2-gram tokens, over unsigned bytes: a 1-char token c
// is 257 * c and a gram (c1, c2) is 257 * c1 + 1 + c2. Keys sort exactly as
// the token strings do (std::string compares unsigned bytes, and a 1-char
// token sorts before every gram that starts with it), and all lie in
// [0, kQGramKeySpace).
inline constexpr int32_t kQGramKeySpace = 257 * 256;

// Appends the keys of QGramSet(s, 2) to `out`, sorted and distinct: the same
// tokens in the same order, without materializing a string per gram.
void AppendQGramKeys(std::string_view s, std::vector<int32_t>& out);

// Returns the set (sorted, deduplicated) of lowercased whitespace-separated
// word tokens, with punctuation stripped from token edges.
std::vector<std::string> WordTokenSet(std::string_view s);

// Size of the intersection of two sorted unique token vectors.
size_t SortedIntersectionSize(const std::vector<std::string>& a,
                              const std::vector<std::string>& b);

}  // namespace cdb

#endif  // CDB_SIMILARITY_TOKENIZER_H_

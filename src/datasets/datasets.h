// Synthetic key datasets matching the paper's three corpora (§6):
//
//   Email — host-reversed addresses ("com.gmail@foo"), avg ~22 bytes
//   Wiki  — article titles, avg ~21 bytes
//   URL   — crawl-style URLs with heavy shared prefixes, avg ~104 bytes
//
// The real corpora (25M emails, 14M Wikipedia titles, 25M crawl URLs) are
// not redistributable / not available offline; these generators reproduce
// their structural statistics — provider/host skew, substring-level
// entropy, length distribution — which is what HOPE's compression rate
// depends on: a dictionary learns which symbols are frequent, not which
// keys exist, so matching those statistics is what makes the CPRs and
// tree sizes comparable to the paper's. Generation is deterministic per
// seed, and keys are unique.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hope {

enum class DatasetId { kEmail, kWiki, kUrl };

const char* DatasetName(DatasetId id);

/// Generates `n` unique host-reversed email addresses.
std::vector<std::string> GenerateEmails(size_t n, uint64_t seed = 42);

/// Generates `n` unique Wikipedia-style article titles.
std::vector<std::string> GenerateWikiTitles(size_t n, uint64_t seed = 42);

/// Generates `n` unique crawl-style URLs.
std::vector<std::string> GenerateUrls(size_t n, uint64_t seed = 42);

std::vector<std::string> GenerateDataset(DatasetId id, size_t n,
                                         uint64_t seed = 42);

/// Returns the first max(1, fraction * keys.size()) keys — the paper's
/// sampling protocol (shuffle, then take the first x%). The generators
/// already emit keys in random order.
std::vector<std::string> SampleKeys(const std::vector<std::string>& keys,
                                    double fraction);

}  // namespace hope

// Differential fuzz target for the encode hot path: for fuzz-derived
// keys, every devirtualized/SIMD leg — EncodeSpan (traced and untraced)
// and the Encode facade — must be byte-identical to the naive per-symbol virtual Lookup loop, across
// every compatible scheme × dictionary implementation. EncodeBatch over
// all the input's keys, in input order and sorted, must then match
// Encode key by key (prefix reuse, prefetching past the batch's end), and
// the sorted keys split into 2-4 ranges must match one range. EncodeTo
// into one buffer reused across the input's keys, so each lands in
// whatever the previous key left there, must match Encode too.
// This is the fuzzing twin of simd_equivalence_test: the unit test pins
// curated keys, the fuzzer feeds adversarial ones (NULs, 0xFF runs,
// boundary straddles) into exactly the same oracle.
//
// The HOPE_NO_SIMD CI build replays the same corpus, so the portable
// kernels (and the non-POPCNT rank) diff against the same reference.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "datasets/datasets.h"
#include "hope/bit_writer.h"
#include "hope/hope.h"
#include "tests/fuzz/fuzz_input.h"

namespace {

using hope::BitWriter;
using hope::Dictionary;
using hope::DictImpl;
using hope::EncodeTrace;
using hope::Hope;
using hope::Scheme;

bool Compatible(Scheme scheme, DictImpl impl) {
  switch (impl) {
    case DictImpl::kArray:
      return scheme == Scheme::kSingleChar || scheme == Scheme::kDoubleChar;
    case DictImpl::kBitmapTrie:
      return scheme == Scheme::kSingleChar || scheme == Scheme::kDoubleChar ||
             scheme == Scheme::kThreeGrams || scheme == Scheme::kFourGrams;
    default:
      return true;
  }
}

const std::vector<std::unique_ptr<Hope>>& AllDicts() {
  // Built once per process: same fixed samples as the equivalence test's
  // spirit, small dictionary limit to keep replay startup short.
  static const auto* dicts = [] {
    auto keys = hope::GenerateDataset(hope::DatasetId::kEmail, 120,
                                      /*seed=*/31);
    auto urls = hope::GenerateDataset(hope::DatasetId::kUrl, 80, /*seed=*/32);
    keys.insert(keys.end(), urls.begin(), urls.end());
    auto* v = new std::vector<std::unique_ptr<Hope>>();
    constexpr Scheme kSchemes[] = {
        Scheme::kSingleChar, Scheme::kDoubleChar, Scheme::kAlm,
        Scheme::kThreeGrams, Scheme::kFourGrams,  Scheme::kAlmImproved,
    };
    constexpr DictImpl kImpls[] = {
        DictImpl::kBinarySearch,
        DictImpl::kArray,
        DictImpl::kBitmapTrie,
        DictImpl::kArt,
    };
    for (Scheme s : kSchemes)
      for (DictImpl i : kImpls) {
        if (!Compatible(s, i)) continue;
        v->push_back(Hope::Build(s, keys, /*dict_size_limit=*/1 << 10,
                                 /*stats=*/nullptr, i));
      }
    return v;
  }();
  return *dicts;
}

/// The scalar reference: the per-symbol virtual Lookup loop, with the
/// completeness contract checked at every step.
std::string RefEncode(const Dictionary& dict, std::string_view key,
                      size_t* bit_len, std::vector<EncodeTrace>* trace) {
  BitWriter writer;
  std::string_view src = key;
  size_t pos = 0;
  while (!src.empty()) {
    if (trace != nullptr)
      trace->push_back({static_cast<uint32_t>(pos),
                        static_cast<uint32_t>(writer.total_bits())});
    hope::LookupResult r = dict.Lookup(src);
    HOPE_CHECK_MSG(r.consumed >= 1 && r.consumed <= src.size(),
                   "lookup consumed bytes outside [1, remaining]");
    writer.Append(r.code);
    src.remove_prefix(r.consumed);
    pos += r.consumed;
  }
  *bit_len = writer.total_bits();
  return writer.TakeBytes();
}

void DiffOneDict(const Hope& hope, const std::vector<std::string>& keys) {
  const Dictionary& dict = hope.dict();
  for (const std::string& key : keys) {
    size_t ref_bits = 0;
    std::vector<EncodeTrace> ref_trace;
    std::string ref = RefEncode(dict, key, &ref_bits, &ref_trace);

    // Untraced EncodeSpan — the Encode hot path.
    BitWriter w;
    dict.EncodeSpan(key, 0, &w, nullptr);
    HOPE_CHECK_MSG(w.total_bits() == ref_bits,
                   "EncodeSpan bit length diverged from the Lookup loop");
    HOPE_CHECK_MSG(w.TakeBytes() == ref,
                   "EncodeSpan bytes diverged from the Lookup loop");

    // Traced EncodeSpan — the batch prefix-reuse path must record the
    // exact same lookup boundaries.
    BitWriter wt;
    std::vector<EncodeTrace> trace;
    dict.EncodeSpan(key, 0, &wt, &trace);
    HOPE_CHECK_MSG(wt.TakeBytes() == ref,
                   "traced EncodeSpan bytes diverged");
    HOPE_CHECK_MSG(trace.size() == ref_trace.size(),
                   "traced EncodeSpan recorded a different lookup count");
    for (size_t i = 0; i < trace.size(); i++) {
      HOPE_CHECK_MSG(trace[i].src_pos == ref_trace[i].src_pos &&
                         trace[i].bit_pos == ref_trace[i].bit_pos,
                     "traced EncodeSpan recorded different boundaries");
    }

    // Facade + losslessness: decode must reproduce the key exactly.
    size_t bits = 0;
    std::string enc = hope.Encode(key, &bits);
    HOPE_CHECK_MSG(enc == ref && bits == ref_bits,
                   "Encode facade diverged from the Lookup loop");
    HOPE_CHECK_MSG(hope.Decode(enc, bits) == key,
                   "decode(encode(key)) is not the key");
  }
}

/// One EncodeBatch over `keys` against Encode on each key, bytes and total
/// bits; DiffOneDict has already pinned Encode to the reference.
void DiffBatch(const Hope& hope, const std::vector<std::string>& keys) {
  size_t batch_bits = 0;
  std::vector<std::string> batch = hope.EncodeBatch(keys, &batch_bits);
  HOPE_CHECK_MSG(batch.size() == keys.size(),
                 "EncodeBatch returned a different key count");
  size_t bits = 0;
  for (size_t i = 0; i < keys.size(); i++) {
    size_t key_bits = 0;
    HOPE_CHECK_MSG(batch[i] == hope.Encode(keys[i], &key_bits),
                   "EncodeBatch bytes diverged from Encode");
    bits += key_bits;
  }
  HOPE_CHECK_MSG(batch_bits == bits,
                 "EncodeBatch total bits diverged from Encode");
}

/// EncodeTo through one buffer across all of `keys` against Encode on
/// each key, bytes and bit length: a key after a longer one is written
/// into a dirty buffer whose old tail must not survive.
void DiffEncodeTo(const Hope& hope, const std::vector<std::string>& keys) {
  std::string buf;
  for (const std::string& key : keys) {
    size_t bits = 0, want_bits = 0;
    hope.EncodeTo(key, &buf, &bits);
    HOPE_CHECK_MSG(buf == hope.Encode(key, &want_bits) && bits == want_bits,
                   "EncodeTo into a reused buffer diverged from Encode");
  }
}

/// The split entry at 2-4 parts against the sequential pass over the same
/// keys: each range restarts prefix reuse at its first key, so a key
/// that shares a prefix with the one across a boundary must still encode
/// to the same bytes.
void DiffSplit(const Hope& hope, const std::vector<std::string>& keys) {
  size_t seq_bits = 0;
  const std::vector<std::string> seq =
      hope::internal::EncodeBatchInParts(hope.encoder(), keys, 1, &seq_bits);
  for (size_t parts = 2; parts <= 4; parts++) {
    size_t bits = 0;
    HOPE_CHECK_MSG(hope::internal::EncodeBatchInParts(hope.encoder(), keys,
                                                      parts, &bits) == seq,
                   "split EncodeBatch bytes diverged from one range");
    HOPE_CHECK_MSG(bits == seq_bits,
                   "split EncodeBatch total bits diverged from one range");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  hope::fuzz::FuzzInput in(data, size);
  // Length-prefixed keys of up to 64 bytes, enough of them for a batch to
  // run past EncodeBatch's prefetch distance; always include the empty
  // key (batch edge) so every input exercises it.
  constexpr size_t kMaxKeys = 3 * hope::Encoder::kPrefetchAhead;
  std::vector<std::string> keys;
  keys.emplace_back();
  while (in.remaining() > 0 && keys.size() < kMaxKeys)
    keys.push_back(in.TakeString(64));
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& hope : AllDicts()) {
    DiffOneDict(*hope, keys);
    DiffEncodeTo(*hope, keys);
    DiffBatch(*hope, keys);
    DiffBatch(*hope, sorted);
    DiffSplit(*hope, sorted);
  }
  return 0;
}

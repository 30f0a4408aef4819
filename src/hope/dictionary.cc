#include "hope/dictionary.h"

#include "common/check.h"

namespace hope {

void Dictionary::EncodeSpan(std::string_view src, size_t base,
                            BitWriter* writer,
                            std::vector<EncodeTrace>* trace) const {
  std::string_view rest = src.substr(base);
  size_t pos = base;
  while (!rest.empty()) {
    if (trace)
      trace->push_back({static_cast<uint32_t>(pos),
                        static_cast<uint32_t>(writer->total_bits())});
    LookupResult r = Lookup(rest);
    // Always-on: remove_prefix past the end is UB, and consumed == 0
    // spins forever. The concrete-impl ctors validate the structural
    // invariants that make their own overshoot-free loops safe; this
    // generic loop is the one path that dereferences the contract, so it
    // traps instead of trusting a (possibly deserialized) dictionary.
    HOPE_CHECK_MSG(r.consumed > 0 && r.consumed <= rest.size(),
                   "dictionary lookup violated the consumed-bytes contract");
    writer->Append(r.code);
    rest.remove_prefix(r.consumed);
    pos += r.consumed;
  }
}

}  // namespace hope

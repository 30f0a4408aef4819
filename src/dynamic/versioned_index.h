// VersionedIndex<Tree>: an adapter over the existing tree wrappers that
// stores HOPE-encoded keys and stays correct across dictionary hot-swaps.
//
// Encodings from different dictionary versions are not mutually
// order-consistent, so versions cannot share one ordered structure.
// Instead the index keeps one *generation* per adopted dictionary epoch:
// a tree whose keys were all encoded under that generation's snapshot
// (which the DictSnapshot keeps alive), plus an insert log of original
// keys that serves as the migration source. New inserts always land in
// the newest generation; Peek() probes newest-to-oldest and moves
// nothing. Old generations drain only through MigrateAll(), which
// re-encodes every live entry under the current dictionary (required
// before range scans, which only make sense within a single
// generation's encoding), or shrink as erases and overwrites empty them.
//
// The adapter is externally synchronized — it never locks. The classic
// embedding is single-writer: one thread mutates the index while the
// DictionaryManager swaps dictionaries underneath it (the swap itself
// stays concurrent-safe via immutable snapshots). The serving layer
// (serve/concurrent_index.h) instead wraps each shard's index in a
// shared_mutex: Peek() is the const read path, safe under a shared lock
// concurrently with other Peek()s; every mutating call requires the
// exclusive lock.
//
// Only the encodes that serve a request — the newest-generation encode of
// Insert() and Peek(), and a caller's EncodeRequest() — feed the
// manager's stats collector. Old-generation probes, eviction, migration
// and log compaction re-encode keys mechanically and feed nothing, so
// retired dictionaries and synthetic bursts never reach the EWMA or the
// reservoir.
//
// Every encode, served or maintenance, writes into the calling thread's
// scratch string (Hope::EncodeTo), which the tree call that follows reads
// in place; log keys are encoded straight from their arena bytes. So,
// once the thread's scratch is warm, a lookup makes no heap allocation of
// its own and an insert pays only the amortized growth of the tree, the
// log arena and the log vector. (The collector's copy of a sampled key
// into its reservoir is the collector's cost.)
//
// The insert log is a vector of KeyRefs (common/arena.h) into an Arena of
// the generation's own: a logged key costs its bytes plus one 8-byte
// reference, not a heap string. Log compaction re-interns the live keys
// into a fresh arena and frees the old one whole.
//
// Tree must provide: Insert(string_view, uint64_t),
// Lookup(string_view, uint64_t*) const, Erase(string_view), size().
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "dynamic/dictionary_manager.h"

namespace hope::dynamic {

namespace internal {

/// The calling thread's encode buffer for VersionedIndex: each encode
/// overwrites it and the tree call right after reads it. Its capacity
/// grows to the longest encoding the thread has made and stays.
inline std::string& EncodeScratch() {
  thread_local std::string scratch;
  return scratch;
}

}  // namespace internal

template <typename Tree>
class VersionedIndex {
 public:
  /// `manager` must outlive the index. Adopts the current epoch.
  explicit VersionedIndex(DictionaryManager* manager) : manager_(manager) {
    gens_.push_back(std::make_unique<Generation>(manager_->Acquire()));
  }

  /// Adopts the manager's current epoch if it moved since the last call;
  /// inserts and MigrateAll() call this themselves, so explicit calls are
  /// only needed to pick up a swap eagerly. One Acquire() serves both the
  /// epoch comparison and the adopted snapshot — a single reader guard
  /// per refresh, and no TOCTOU window between a separate epoch() probe
  /// and the acquisition.
  void Refresh() {
    DictSnapshot snap = manager_->Acquire();
    if (snap.epoch != gens_.back()->dict.epoch)
      gens_.push_back(std::make_unique<Generation>(std::move(snap)));
  }

  void Insert(const std::string& key, uint64_t value) {
    Refresh();
    // Evict any stale copy so an old generation can never shadow the
    // fresh value after this one migrates or is erased.
    for (size_t g = 0; g + 1 < gens_.size(); g++)
      gens_[g]->tree.Erase(gens_[g]->Encode(key));
    Generation& newest = *gens_.back();
    newest.tree.Insert(ServedEncode(key), value);
    newest.Log(key);
    CompactLog(newest);
  }

  /// Point lookup: probes every generation newest-to-oldest without
  /// migrating hits, adopting epochs, or otherwise mutating the index.
  /// This is the concurrent reader path — safe under a shared lock
  /// alongside other Peek()s. The newest-generation encode is real
  /// serving traffic and feeds the stats collector; old-generation probes
  /// do not. Old generations drain via MigrateAll(), not here, so a
  /// Peek-only workload leaves generation counts unchanged.
  bool Peek(const std::string& key, uint64_t* value) const {
    for (size_t g = gens_.size(); g-- > 0;) {
      const Generation& gen = *gens_[g];
      const std::string& enc =
          g + 1 == gens_.size() ? ServedEncode(key) : gen.Encode(key);
      uint64_t v = 0;
      if (gen.tree.Lookup(enc, &v)) {
        if (value) *value = v;
        return true;
      }
    }
    return false;
  }

  bool Erase(const std::string& key) {
    bool erased = false;
    for (auto& gen : gens_)
      erased |= gen->tree.Erase(gen->Encode(key));
    PruneEmpty();
    return erased;
  }

  /// Migration insert that never clobbers: if the key is already live in
  /// any generation the existing value wins and nothing changes. The
  /// cross-shard migration path needs this — a concurrent writer may
  /// have inserted a fresher value into the destination shard after the
  /// migration batch captured the source entry, and replaying the stale
  /// copy over it would undo the write. Returns true when inserted.
  bool InsertIfAbsent(const std::string& key, uint64_t value) {
    Refresh();
    for (auto& gen : gens_) {
      uint64_t v = 0;
      if (gen->tree.Lookup(gen->Encode(key), &v)) return false;
    }
    Generation& newest = *gens_.back();
    newest.tree.Insert(newest.Encode(key), value);
    newest.Log(key);
    CompactLog(newest);
    return true;
  }

  /// Sorted live original keys in [begin, end) (`end == nullptr` =
  /// unbounded above), without removing them. Drains old generations
  /// first so one tree + log pair answers. This is the migration cursor
  /// for incremental cross-shard moves: capture the key list once, then
  /// ExtractKeys() it in bounded batches.
  std::vector<std::string> CollectRangeKeys(const std::string& begin,
                                            const std::string* end) {
    MigrateAll();
    std::vector<std::string> out;
    ForEachLiveLogKey(*gens_.back(), begin, end,
                      [&](std::string_view key) { out.emplace_back(key); });
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Removes exactly the listed keys (those still live — keys erased or
  /// already moved since the cursor was captured are skipped) and
  /// appends {key, value} pairs to `out`. Returns entries extracted.
  size_t ExtractKeys(const std::vector<std::string>& keys,
                     std::vector<std::pair<std::string, uint64_t>>* out) {
    size_t extracted = 0;
    for (const std::string& key : keys) {
      for (size_t g = gens_.size(); g-- > 0;) {
        Generation& gen = *gens_[g];
        const std::string& enc = gen.Encode(key);
        uint64_t v = 0;
        if (!gen.tree.Lookup(enc, &v)) continue;
        gen.tree.Erase(enc);
        out->emplace_back(key, v);
        extracted++;
        break;
      }
    }
    PruneEmpty();
    return extracted;
  }

  /// Eagerly drains every old generation through its insert log. Returns
  /// the number of entries moved; afterwards NumGenerations() == 1.
  size_t MigrateAll() {
    Refresh();
    size_t moved = 0;
    for (size_t g = 0; g + 1 < gens_.size(); g++) {
      Generation& gen = *gens_[g];
      for (KeyRef ref : gen.log) {
        const std::string_view key = KeyAt(ref);
        const std::string& enc = gen.Encode(key);
        uint64_t v = 0;
        // Logged keys may have been erased or already migrated (the log
        // is append-only); only live entries move.
        if (!gen.tree.Lookup(enc, &v)) continue;
        gen.tree.Erase(enc);
        Generation& newest = *gens_.back();
        newest.tree.Insert(newest.Encode(key), v);
        newest.Log(key);
        moved++;
      }
      // Same bound as the insert append paths; one check per drained
      // generation keeps the drain loop linear.
      CompactLog(*gens_.back());
    }
    gens_.erase(gens_.begin(), gens_.end() - 1);
    return moved;
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& gen : gens_) n += gen->tree.size();
    return n;
  }

  size_t NumGenerations() const { return gens_.size(); }
  uint64_t CurrentEpoch() const { return gens_.back()->dict.epoch; }

  /// Newest generation's insert-log length (diagnostic; stays within a
  /// constant factor of live entries thanks to compaction).
  size_t LogSize() const { return gens_.back()->log.size(); }

  /// The newest generation's tree — valid for scans once
  /// NumGenerations() == 1 (call MigrateAll() first).
  const Tree& tree() const { return gens_.back()->tree; }

  /// Encodes a request's key into `*out` (Hope::EncodeTo; `out` must not
  /// alias `key`) under the newest generation's dictionary and feeds the
  /// manager's stats collector: the one serving encode, used by Insert(),
  /// Peek() and a scan's start key (scan through tree() with it). Const;
  /// the collector is thread-safe.
  void EncodeRequest(std::string_view key, std::string* out) const {
    size_t bits = 0;
    gens_.back()->dict.hope->EncodeTo(key, out, &bits);
    manager_->stats().OnEncode(key, bits);
  }

 private:
  struct Generation {
    explicit Generation(DictSnapshot snapshot) : dict(std::move(snapshot)) {}

    /// Maintenance encode under this generation's dictionary into the
    /// calling thread's scratch, valid until that thread's next encode;
    /// feeds no stats (see EncodeRequest for the serving encode).
    const std::string& Encode(std::string_view key) const {
      std::string& out = internal::EncodeScratch();
      dict.hope->EncodeTo(key, &out);
      return out;
    }

    /// Appends `key` to the insert log.
    void Log(std::string_view key) { log.push_back(log_bytes.Intern(key)); }

    DictSnapshot dict;
    Tree tree;
    Arena log_bytes;          ///< the logged keys' bytes
    std::vector<KeyRef> log;  ///< original keys inserted here, in order
  };

  /// EncodeRequest into the calling thread's scratch, valid until that
  /// thread's next encode.
  const std::string& ServedEncode(std::string_view key) const {
    std::string& out = internal::EncodeScratch();
    EncodeRequest(key, &out);
    return out;
  }

  /// Bounds the append-only insert log: once it outgrows the live entry
  /// count by 4x (overwrites, erased keys, migrated re-appends), rewrite
  /// it with the deduplicated live keys. The geometric trigger keeps the
  /// amortized cost per insert constant, and log size tracks live
  /// entries, not lifetime inserts. The live keys move into a fresh
  /// arena, and the old one, dead keys and all, is freed whole.
  void CompactLog(Generation& gen) {
    if (gen.log.size() <= 4 * gen.tree.size() + 64) return;
    Arena bytes;
    std::vector<KeyRef> log;
    ForEachLiveLogKey(gen, {}, nullptr, [&](std::string_view key) {
      log.push_back(bytes.Intern(key));
    });
    gen.log_bytes = std::move(bytes);
    gen.log = std::move(log);
  }

  /// Calls `fn(key)` on each distinct key of `gen`'s append-only log
  /// (which also holds overwritten and erased keys) that lies in
  /// [begin, end) — `end == nullptr` means unbounded above — and is still
  /// live in its tree, in first-logged order. `key` views the log's own
  /// bytes.
  template <typename Fn>
  static void ForEachLiveLogKey(const Generation& gen, std::string_view begin,
                                const std::string* end, Fn&& fn) {
    std::unordered_set<std::string_view> seen;
    for (KeyRef ref : gen.log) {
      const std::string_view key = KeyAt(ref);
      if (!seen.insert(key).second) continue;
      if (key < begin || (end && key >= *end)) continue;
      uint64_t v = 0;
      if (gen.tree.Lookup(gen.Encode(key), &v)) fn(key);
    }
  }

  void PruneEmpty() {
    // Drop drained old generations (never the newest) so probes and the
    // per-insert eviction pass stay short.
    for (size_t g = gens_.size() - 1; g-- > 0;)
      if (gens_[g]->tree.size() == 0)
        gens_.erase(gens_.begin() + static_cast<long>(g));
  }

  DictionaryManager* manager_;
  std::vector<std::unique_ptr<Generation>> gens_;  ///< oldest .. newest
};

}  // namespace hope::dynamic

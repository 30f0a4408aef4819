// VersionedIndex<Tree>: an adapter over the existing tree wrappers that
// stores HOPE-encoded keys and stays correct across dictionary hot-swaps.
//
// Encodings from different dictionary versions are not mutually
// order-consistent, so versions cannot share one ordered structure. The
// index therefore holds exactly one *generation*: a dictionary snapshot
// (which keeps that version alive), a tree whose keys were all encoded
// under it, and an insert log of original keys to re-encode from. When
// the manager's epoch moves, the next Insert() or InsertIfAbsent() (or an
// explicit Refresh()) adopts it by rebuilding: one pass over the log
// re-encodes every live entry into a fresh tree under the new snapshot,
// and the fresh generation replaces the old one whole. Peek() never
// adopts, so a lookup always encodes under the dictionary its tree was
// built with, and tree() is always scannable in key order.
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
// Only the encodes that serve a request — the encode of Insert() and
// Peek(), and a caller's EncodeRequest() — feed the manager's stats
// collector. Rebuilds, erases, migration inserts and range collection
// re-encode keys mechanically and feed nothing, so retired dictionaries
// and synthetic bursts never reach the EWMA or the reservoir.
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
// reference, not a heap string. The log is append-only, so it also holds
// overwritten and erased keys; once it outgrows the live entries the
// index rebuilds under its current snapshot, which frees the dead log
// bytes and the tree's dead key bytes together.
//
// Tree must provide: Insert(string_view, uint64_t),
// Lookup(string_view, uint64_t*) const, Erase(string_view), size().
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
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
  explicit VersionedIndex(DictionaryManager* manager)
      : manager_(manager),
        gen_(std::make_unique<Generation>(manager_->Acquire())) {}

  /// Adopts the manager's current epoch if it moved, by a Rebuild();
  /// returns the entries re-encoded (0 when the epoch did not move).
  /// Inserts call this themselves, so explicit calls are only needed to
  /// pick up a swap eagerly. The common case is one atomic load: the
  /// snapshot is acquired only once the epoch has moved.
  size_t Refresh() {
    if (manager_->epoch() == gen_->dict.epoch) return 0;
    DictSnapshot snap = manager_->Acquire();
    if (snap.epoch == gen_->dict.epoch) return 0;
    return Rebuild(std::move(snap));
  }

  void Insert(const std::string& key, uint64_t value) {
    Refresh();
    gen_->tree.Insert(ServedEncode(key), value);
    gen_->Log(key);
    CompactLog();
  }

  /// Point lookup under the adopted dictionary; adopts nothing and
  /// mutates nothing. This is the concurrent reader path — safe under a
  /// shared lock alongside other Peek()s. Its encode is real serving
  /// traffic and feeds the stats collector.
  bool Peek(const std::string& key, uint64_t* value) const {
    uint64_t v = 0;
    if (!gen_->tree.Lookup(ServedEncode(key), &v)) return false;
    if (value) *value = v;
    return true;
  }

  bool Erase(const std::string& key) {
    return gen_->tree.Erase(gen_->Encode(key));
  }

  /// Migration insert that never clobbers: if the key is already live
  /// the existing value wins and nothing changes. The cross-shard
  /// migration path needs this — a concurrent writer may have inserted a
  /// fresher value into the destination shard after the migration batch
  /// captured the source entry, and replaying the stale copy over it
  /// would undo the write. Returns true when inserted.
  bool InsertIfAbsent(const std::string& key, uint64_t value) {
    Refresh();
    const std::string& enc = gen_->Encode(key);
    uint64_t v = 0;
    if (gen_->tree.Lookup(enc, &v)) return false;
    gen_->tree.Insert(enc, value);
    gen_->Log(key);
    CompactLog();
    return true;
  }

  /// Sorted, distinct live original keys in [begin, end) (`end ==
  /// nullptr` = unbounded above), without removing them. This is the
  /// migration cursor for incremental cross-shard moves: capture the key
  /// list once, then ExtractKeys() it in bounded batches.
  std::vector<std::string> CollectRangeKeys(const std::string& begin,
                                            const std::string* end) const {
    std::vector<std::string> out;
    for (KeyRef ref : gen_->log) {
      const std::string_view key = KeyAt(ref);
      if (key < begin || (end && key >= *end)) continue;
      uint64_t v = 0;
      if (gen_->tree.Lookup(gen_->Encode(key), &v)) out.emplace_back(key);
    }
    // The log holds a key once per insert.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Removes exactly the listed keys (those still live — keys erased or
  /// already moved since the cursor was captured are skipped) and
  /// appends {key, value} pairs to `out`. Returns entries extracted.
  size_t ExtractKeys(const std::vector<std::string>& keys,
                     std::vector<std::pair<std::string, uint64_t>>* out) {
    size_t extracted = 0;
    for (const std::string& key : keys) {
      const std::string& enc = gen_->Encode(key);
      uint64_t v = 0;
      if (!gen_->tree.Lookup(enc, &v)) continue;
      gen_->tree.Erase(enc);
      out->emplace_back(key, v);
      extracted++;
    }
    return extracted;
  }

  size_t size() const { return gen_->tree.size(); }

  /// The epoch of the dictionary every key in tree() is encoded under.
  uint64_t CurrentEpoch() const { return gen_->dict.epoch; }

  /// Insert-log length (diagnostic; stays within a constant factor of
  /// live entries thanks to compaction).
  size_t LogSize() const { return gen_->log.size(); }

  /// The tree, every key encoded under CurrentEpoch()'s dictionary, so
  /// it scans in key order (start from an EncodeRequest()).
  const Tree& tree() const { return gen_->tree; }

  /// Encodes a request's key into `*out` (Hope::EncodeTo; `out` must not
  /// alias `key`) under the adopted dictionary and feeds the manager's
  /// stats collector: the one serving encode, used by Insert(), Peek()
  /// and a scan's start key (scan through tree() with it). Const; the
  /// collector is thread-safe.
  void EncodeRequest(std::string_view key, std::string* out) const {
    size_t bits = 0;
    gen_->dict.hope->EncodeTo(key, out, &bits);
    manager_->stats().OnEncode(key, bits);
  }

 private:
  /// A dictionary snapshot with the tree and insert log encoded under
  /// it. Held behind a unique_ptr: trees are not movable.
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
    std::vector<KeyRef> log;  ///< original keys inserted, in order
  };

  /// EncodeRequest into the calling thread's scratch, valid until that
  /// thread's next encode.
  const std::string& ServedEncode(std::string_view key) const {
    std::string& out = internal::EncodeScratch();
    EncodeRequest(key, &out);
    return out;
  }

  /// Replaces the generation with one under `snapshot` holding the same
  /// live entries: one pass over the log re-encodes each live key into a
  /// fresh tree and log. The log also holds overwritten and erased keys
  /// and logs a key once per insert, so each entry is looked up under
  /// the old encoding and erased there as it moves: a key logged twice,
  /// or two keys whose old encodings coincide, move once. Returns the
  /// entries moved.
  size_t Rebuild(DictSnapshot snapshot) {
    auto next = std::make_unique<Generation>(std::move(snapshot));
    Generation& old = *gen_;
    size_t moved = 0;
    for (KeyRef ref : old.log) {
      const std::string_view key = KeyAt(ref);
      const std::string& enc = old.Encode(key);
      uint64_t v = 0;
      if (!old.tree.Lookup(enc, &v)) continue;
      old.tree.Erase(enc);
      next->tree.Insert(next->Encode(key), v);
      next->Log(key);
      moved++;
    }
    gen_ = std::move(next);
    return moved;
  }

  /// Bounds the append-only log: once it outgrows the live entry count
  /// by 4x (overwrites, erased keys), rebuild under the current
  /// snapshot. The geometric trigger keeps the amortized cost per insert
  /// constant, and the log and the tree's key bytes track live entries,
  /// not lifetime inserts.
  void CompactLog() {
    if (gen_->log.size() > 4 * gen_->tree.size() + 64) Rebuild(gen_->dict);
  }

  DictionaryManager* manager_;
  std::unique_ptr<Generation> gen_;
};

}  // namespace hope::dynamic

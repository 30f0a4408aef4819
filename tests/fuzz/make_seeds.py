#!/usr/bin/env python3
"""Regenerates the committed fuzz corpus under tests/fuzz/corpus/.

The corpus is deterministic and checked in: the replay ctests run it on
every build row, so each file doubles as a crash-regression test. The
fuzz_deserialize entries encode one malformed-blob bug class apiece from
the serialization-hardening PR (code.len 0/>64, bad symbol_len, huge
counts, non-prefix-free codes, ...): Deserialize must reject each one,
and if its validation is reverted the target's contract checks trap on
the replayed file.

Usage: python3 make_seeds.py [corpus-dir]   (default: ./corpus)
"""
import os
import random
import struct
import sys

MAGIC = b"HOPEDICT1"

SINGLE_CHAR, DOUBLE_CHAR, ALM, THREE_GRAMS, FOUR_GRAMS, ALM_IMPROVED = range(6)


def entry(bound: bytes, symlen: int, code_bits: int, code_len: int) -> bytes:
    return (struct.pack("<I", len(bound)) + bound + struct.pack("<I", symlen)
            + struct.pack("<Q", code_bits) + bytes([code_len & 0xFF]))


def blob(scheme: int, entries: list, count: int = None) -> bytes:
    body = b"".join(entries)
    n = len(entries) if count is None else count
    return MAGIC + bytes([scheme]) + struct.pack("<I", n) + body


def single_char_entries():
    # 256 one-byte intervals, fixed 8-bit codes: the canonical accepted
    # blob (first bound is the empty string, standing for byte 0).
    out = []
    for i in range(256):
        bound = b"" if i == 0 else bytes([i])
        out.append(entry(bound, 1, i << 56, 8))
    return out


def alm_entries():
    # Four intervals, 2-bit codes — the smallest interesting VIFC dict.
    bounds = [b"", b"a", b"b", b"m"]
    return [entry(b, 1, i << 62, 2) for i, b in enumerate(bounds)]


def write(path: str, name: str, data: bytes):
    with open(os.path.join(path, name), "wb") as f:
        f.write(data)


def gen_deserialize(d: str):
    valid_sc = blob(SINGLE_CHAR, single_char_entries())
    valid_alm = blob(ALM, alm_entries())
    write(d, "valid_single_char", valid_sc)
    write(d, "valid_alm", valid_alm)
    # 3-grams default dictionary is the bitmap trie; short bounds only.
    write(d, "valid_3grams", blob(THREE_GRAMS, [
        entry(b"", 1, 0b00 << 62, 2),
        entry(b"a", 1, 0b01 << 62, 2),
        entry(b"ab", 2, 0b10 << 62, 2),
        entry(b"b", 1, 0b11 << 62, 2),
    ]))
    # Minimal accepted dictionary: one interval, one 1-bit code.
    write(d, "valid_minimal", blob(ALM, [entry(b"", 1, 0, 1)]))

    # --- malformed-blob bug classes (one file per class) --------------
    # A zero-length code would encode symbols to nothing: with the
    # validation reverted this dictionary is accepted and the probe walk
    # trips "at least one bit".
    write(d, "codelen_zero", blob(ALM, [entry(b"", 1, 0, 0)]))
    # Codes wider than the 64-bit accumulator: reverting the range check
    # sends len=65 into BitWriter/CodeBit shifts (UBSan traps).
    write(d, "codelen_65", blob(ALM, [
        entry(b"", 1, 0, 1), entry(b"a", 1, 1 << 63, 65)]))
    write(d, "codelen_255", blob(ALM, [entry(b"", 1, 0, 255)]))
    # symbol_len 0 spins the encode loop (consumed == 0); symbol_len
    # past the bound length overshoots remove_prefix.
    write(d, "symlen_zero", blob(ALM, [
        entry(b"", 1, 0b0 << 63, 1), entry(b"b", 0, 0b1 << 63, 1)]))
    write(d, "symlen_too_big", blob(ALM, [
        entry(b"", 1, 0b0 << 63, 1), entry(b"b", 3, 0b1 << 63, 1)]))
    # A corrupted count must not drive a huge reserve() before the
    # per-entry reads start failing.
    write(d, "count_huge", blob(ALM, [], count=0xFFFFFFFF))
    write(d, "count_one_past", blob(ALM, alm_entries(), count=5))
    # Prefix/duplicate codes break unique decodability.
    write(d, "nonprefix_codes", blob(ALM, [
        entry(b"", 1, 0b0 << 63, 1), entry(b"a", 1, 0b00 << 62, 2)]))
    write(d, "dup_codes", blob(ALM, [
        entry(b"", 1, 0b1 << 63, 1), entry(b"a", 1, 0b1 << 63, 1)]))
    # Boundary ordering and the implicit first interval.
    write(d, "unsorted_bounds", blob(ALM, [
        entry(b"", 1, 0b00 << 62, 2), entry(b"b", 1, 0b01 << 62, 2),
        entry(b"a", 1, 0b10 << 62, 2)]))
    write(d, "dup_bounds", blob(ALM, [
        entry(b"", 1, 0b00 << 62, 2), entry(b"a", 1, 0b01 << 62, 2),
        entry(b"a", 1, 0b10 << 62, 2)]))
    write(d, "first_bound_nonempty", blob(ALM, [
        entry(b"a", 1, 0b0 << 63, 1), entry(b"b", 1, 0b1 << 63, 1)]))
    # Nonzero bits beyond code.len smear into the next code in the
    # BitWriter's branch-free OR.
    write(d, "padding_bits", blob(ALM, [
        entry(b"", 1, (0b00 << 62) | 1, 2), entry(b"a", 1, 0b01 << 62, 2),
        entry(b"b", 1, 0b10 << 62, 2), entry(b"m", 1, 0b11 << 62, 2)]))
    # Array-dictionary structural mismatch: a Single-Char slot claiming
    # a 2-byte symbol (the release-mode overshoot fixed alongside the
    # HOPE_CHECK adoption).
    sc = single_char_entries()
    sc[65] = entry(bytes([65]), 2, 65 << 56, 8)
    write(d, "array_symlen_mismatch", blob(SINGLE_CHAR, sc))
    # Framing: truncation, trailing garbage, busted magic, huge bound.
    write(d, "truncated", valid_alm[:len(valid_alm) - 7])
    write(d, "trailing_garbage", valid_alm + b"\x00")
    write(d, "bad_magic", b"HOPEDICT2" + valid_alm[len(MAGIC):])
    write(d, "bad_scheme", MAGIC + bytes([6]) + valid_alm[len(MAGIC) + 1:])
    write(d, "boundlen_huge", MAGIC + bytes([ALM]) + struct.pack("<I", 1)
          + struct.pack("<I", 0xFFFFFFFF) + b"a" * 32)
    write(d, "empty", b"")
    write(d, "magic_only", MAGIC)


def gen_decode(d: str):
    # [dict selector][claimed bits lo][claimed bits hi][bitstream...]
    write(d, "single_char_ascii", bytes([0, 24, 0]) + b"abc")
    write(d, "single_char_exact", bytes([0, 8, 0]) + b"\x41")
    write(d, "three_grams_salad", bytes([1, 200, 0]) + bytes(range(32)))
    write(d, "alm_salad", bytes([2, 64, 0]) + b"\xff" * 16)
    write(d, "overclaim", bytes([0, 255, 255]) + b"xy")
    write(d, "empty_stream", bytes([1, 0, 0]))
    write(d, "partial_code", bytes([0, 3, 0]) + b"\x80")


def gen_encode_diff(d: str):
    # Repeated [len byte][bytes] keys (fuzz_input TakeString framing).
    def pack(keys):
        return b"".join(bytes([len(k)]) + k for k in keys)

    write(d, "emails", pack([b"alice@example.com", b"bob@test.org"]))
    write(d, "binary", pack([b"\x00\x01\x02", b"\xff\xfe\xfd", b"\x00" * 8]))
    write(d, "boundary_straddle", pack(
        [b"a", b"ab", b"abc", b"abcd", b"abcde"]))
    write(d, "high_bytes", pack([b"\xff" * 33, b"\x80\x7f" * 10]))
    write(d, "empty_and_one", pack([b"", b"z"]))
    write(d, "long_run", pack([b"m" * 64, b"mm" * 20]))
    # Batches longer than EncodeBatch's prefetch distance (16 keys): the
    # target batch-encodes all of an input's keys, as given and sorted.
    write(d, "batch_past_prefetch", pack(
        [b"com.gmail@user%03d" % (i * 7 % 40) for i in range(40)]))
    write(d, "batch_nul_led", pack(
        [b"\x00" * (i % 5 + 1) + bytes([i * 37 % 256]) for i in range(24)]))
    write(d, "batch_ff_runs", pack(
        [b"\xff" * (i + 1) for i in range(20)] + [b"a\xff\xff", b"\xfe\xff"]))
    # Sorted keys that all share a 14-byte prefix: every boundary of the
    # target's 2-4 part split cuts a run the sequential pass reuses.
    write(d, "split_shared_prefix", pack(
        [b"com.gmail@user%02d" % i for i in range(12)]))
    # Encode-into through one reused buffer: each key after the longest
    # one lands in a dirty buffer, shrinking down to the empty key, with
    # NULs inside, leading and trailing.
    write(d, "encode_to_dirty", pack(
        [b"\xff" * 64, b"com.gmail@a\x00b", b"\x00" * 9, b"",
         b"x\x00", b"\x00com.y@z", b"m" * 40, b"m"]))


def gen_parse(d: str):
    def argv(*toks):
        return b"\x00".join(toks)

    write(d, "serve_full", argv(b"double-char", b"1000", b"4", b"8",
                                b"--stats-file", b"/tmp/s.jsonl",
                                b"--stats-interval", b"250"))
    write(d, "serve_bad_flag", argv(b"-x", b"100"))
    write(d, "serve_missing_value", argv(b"--stats-file"))
    write(d, "serve_too_many", argv(b"alm", b"1", b"2", b"3", b"4"))
    write(d, "numbers", argv(b"0", b"1", b"007", b"4294967296",
                             b"18446744073709551615",
                             b"18446744073709551616", b"12x", b"+7", b" 7"))
    write(d, "schemes", argv(b"single-char", b"3-grams", b"alm-improved",
                             b"Single-Char", b"alm "))
    write(d, "hex", argv(b"deadbeef", b"DEADBEEF", b"abc", b"0g",
                         b"00ff10"))


def gen_telemetry(d: str):
    # Raw driver bytes for the snapshot builder; the interesting content
    # is label values with quotes/backslashes/newlines/control bytes.
    write(d, "quote_label", bytes([0, 0, 0, 0, 0, 0, 0, 0,  # ts
                                   2,                       # metrics
                                   0, 1, 0]) + bytes([12]) + b'he said "hi"'
          + bytes([0]) + b"\x00" * 40)
    write(d, "backslash_newline", bytes([1] * 9) + bytes([1, 1, 1])
          + bytes([10]) + b'a\\b\nc\rd\te' + b"\x02" * 48)
    write(d, "control_bytes", bytes([7] * 12) + bytes([8])
          + bytes(range(1, 9)) + b"\xff" * 40)
    write(d, "nan_inf", bytes([3] * 10) + b"\x00\x00\x00\x00\x00\x00\xf0\x7f"
          + b"\x01\x00\x00\x00\x00\x00\xf0\xff" + b"\x55" * 30)
    write(d, "many_metrics", bytes([200]) * 120)


def gen_btree_ops(d: str):
    # [op][operands...] per operation, op = selector byte % 8:
    # 0 append-max [len][suffix], 1 insert [len][key], 2 overwrite
    # [len][probe], 3 erase [len][probe][take-next bool], 4 lookup
    # [len][key], 5 scan [len][start][count], 6 long insert
    # [length selector][fill byte][len][suffix], 7 churn
    # [count][len][probe]. Every input drives BTree, Art and Hot. A few
    # thousand ascending appends drive the right-spine append splits
    # through three levels.
    append = bytes([0, 0])
    erase_min = bytes([3, 0, 1])
    tail = bytes([4, 0, 5, 0, 31])
    write(d, "ascending", append * 1500 + tail)
    write(d, "descending", b"".join(
        bytes([1, 2]) + struct.pack(">H", n) for n in range(600, 0, -1))
        + tail)
    # Append, then erase down to empty from the top with an append after
    # every second erase (so each merge that frees the rightmost leaf is
    # followed by an append through the fast path), then append again.
    def successor(key):
        head = key.rstrip(b"\xff")
        return key + b"\0" if not head else head[:-1] + bytes([head[-1] + 1])

    keys = [b""]
    for _ in range(399):
        keys.append(successor(keys[-1]))
    ops = [append] * 400
    while keys:
        for _ in range(2):
            if keys:
                top = keys.pop()
                ops.append(bytes([3, len(top)]) + top + bytes([1]))
        if keys:
            keys.append(successor(keys[-1]))
            ops.append(append)
    write(d, "append_erase_all_append",
          b"".join(ops) + append * 400 + erase_min * 100 + tail)
    rng = random.Random(14)
    ops = []
    for _ in range(2000):
        op = rng.choices(range(6), weights=[50, 20, 5, 15, 5, 5])[0]
        key = bytes(rng.randrange(256) for _ in range(rng.randrange(5)))
        if op == 0:
            ops.append(bytes([0, len(key[:3])]) + key[:3])
        elif op == 3:
            ops.append(bytes([3, len(key)]) + key + bytes([rng.randrange(2)]))
        elif op == 5:
            ops.append(bytes([5, len(key)]) + key + bytes([rng.randrange(32)]))
        else:
            ops.append(bytes([op, len(key)]) + key)
    write(d, "mixed", b"".join(ops) + tail)
    # Shuffled inserts with an erase after every fourth: overflows into
    # full leaves shift an entry into the left or the right sibling, or
    # split the leaf when both siblings are full.
    rng = random.Random(16)
    nums = list(range(1500))
    rng.shuffle(nums)
    ops = []
    for i, n in enumerate(nums):
        ops.append(bytes([1, 2]) + struct.pack(">H", n))
        if i % 4 == 3:
            victim = nums[rng.randrange(i + 1)]
            ops.append(bytes([3, 2]) + struct.pack(">H", victim) + bytes([0]))
    write(d, "random_overflow", b"".join(ops) + tail)
    # Keys of 65,533-65,539 bytes of 0x00, 'k' or 0xFF, on both sides of
    # the 16-bit length tag and each filling or outgrowing an arena chunk,
    # between short keys; then overwrites, appends past an all-0xFF
    # maximum, erases and scans that reach them.
    ops = []
    for sel in range(4):
        for fill in (0x00, ord("k"), 0xFF):
            for suffix in (b"", b"\x00", b"ab"):
                ops.append(bytes([6, sel, fill, len(suffix)]) + suffix)
                ops.append(bytes([1, 2]) + struct.pack(">H", 97 * sel + fill))
    for probe in (b"\x00", b"k", b"\xff"):
        ops.append(bytes([2, len(probe)]) + probe)
        ops.append(bytes([5, len(probe)]) + probe + bytes([31]))
    ops += [append] * 3
    for probe in (b"\x00", b"k", b"k", b"\xff"):
        ops.append(bytes([3, len(probe)]) + probe + bytes([1]))
    ops.append(bytes([6, 1, ord("k"), 0]))
    write(d, "long_keys", b"".join(ops) + tail)
    # The empty key first, into a tree with no keys yet, then keys of only
    # 0x00 bytes around it: lookups, an append past them, an erase and
    # re-insert of the empty key, and scans from it.
    ops = [bytes([1, 0]), bytes([4, 0])]
    ops += [bytes([1, n]) + b"\x00" * n for n in range(1, 9)]
    ops += [bytes([4, n]) + b"\x00" * n for n in range(10)]
    ops += [append, bytes([3, 0, 0]), bytes([4, 0]), bytes([5, 0, 31]),
            bytes([1, 0]), bytes([2, 0]), bytes([3, 1, 0, 1])]
    write(d, "empty_and_nul", b"".join(ops) + tail)
    # Erase and re-insert churn over keys of mixed lengths, so Hot nodes
    # of many edge counts and every Art node size are freed and taken back
    # off the arena's free lists: churn runs from random probes, then an
    # erase of every key from the minimum up, a reload, and more churn.
    rng = random.Random(18)
    keys = set()
    while len(keys) < 600:
        keys.add(struct.pack(">H", rng.randrange(4000))
                 + bytes(rng.randrange(256) for _ in range(rng.randrange(3))))
    keys = sorted(keys)
    rng.shuffle(keys)
    load = [bytes([1, len(k)]) + k for k in keys]
    def churn(n):
        out = []
        for _ in range(n):
            probe = bytes(rng.randrange(256) for _ in range(rng.randrange(3)))
            out.append(bytes([7, rng.randrange(256), len(probe)]) + probe)
        return out
    ops = load + churn(300) + [erase_min] * 600 + [tail] + load + churn(300)
    write(d, "churn", b"".join(ops) + tail)
    # The same churn over keys on both sides of the 16-bit length tag:
    # long keys between short ones, then churn runs that erase and
    # re-insert them, erases of each long key and long re-inserts.
    ops = []
    for sel in range(4):
        for fill in (0x00, ord("k"), 0xFF):
            ops.append(bytes([6, sel, fill, 1, sel]))
            ops.append(bytes([1, 2]) + struct.pack(">H", 97 * sel + fill))
    for _ in range(3):
        for probe in (b"", b"\x00", b"k", b"\xff"):
            ops.append(bytes([7, 15, len(probe)]) + probe)
        for probe in (b"\x00", b"k", b"\xff"):
            ops.append(bytes([3, len(probe)]) + probe + bytes([1]))
        for sel in range(4):
            ops.append(bytes([6, sel, ord("k"), 1, sel]))
    write(d, "long_churn", b"".join(ops) + tail)
    # Keys on both sides of BTree's 1-byte length (length selectors 4-7:
    # 253-256 bytes, plus a 1-byte suffix) and of 65,535 bytes (2-3)
    # between short keys: churn runs that erase and re-insert them, an
    # erase of every key from the minimum up, a reload and more churn.
    load = []
    for sel in (4, 5, 6, 7, 2, 3):
        for fill in (0x00, ord("k"), 0xFF):
            load.append(bytes([6, sel, fill, 1, sel]))
            load.append(bytes([1, 2]) + struct.pack(">H", 97 * sel + fill))
    churn_runs = [bytes([7, 15, len(probe)]) + probe
                  for probe in (b"", b"\x00", b"k", b"\xff")] * 3
    ops = load + churn_runs + [erase_min] * 40 + [tail] + load + churn_runs
    write(d, "len_escape", b"".join(ops) + tail)
    # One Hot node of 257 edges: "p" (the end-of-key edge, first in the
    # node) and "p" + every byte value, inserted in random order, then
    # erased in another until one edge is left and the node collapses
    # into its last leaf.
    rng = random.Random(20)
    keys = [b"p"] + [b"p" + bytes([b]) for b in range(256)]
    rng.shuffle(keys)
    ops = [bytes([1, len(k)]) + k for k in keys]
    ops.append(bytes([5, 1]) + b"p" + bytes([31]))
    rng.shuffle(keys)
    for k in keys[:-1]:
        ops.append(bytes([3, len(k)]) + k + bytes([0]))
        ops.append(bytes([4, len(k)]) + k)
    ops.append(bytes([4, len(keys[-1])]) + keys[-1])
    write(d, "wide_node", b"".join(ops) + tail)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else \
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")
    gens = {
        "fuzz_deserialize": gen_deserialize,
        "fuzz_decode": gen_decode,
        "fuzz_encode_diff": gen_encode_diff,
        "fuzz_parse": gen_parse,
        "fuzz_telemetry_export": gen_telemetry,
        "fuzz_btree_ops": gen_btree_ops,
    }
    for target, gen in gens.items():
        d = os.path.join(root, target)
        os.makedirs(d, exist_ok=True)
        gen(d)
        print(f"{target}: {len(os.listdir(d))} seeds")


if __name__ == "__main__":
    main()

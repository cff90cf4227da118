#!/usr/bin/env python3
"""Compares two versions of soe_test's golden session grid.

A change to how the card receives its rules may move only the rule terms
of a session: the bytes transferred, the APDU frames, the bytes hashed and
the bytes decrypted for the rules. Those depend on the subject alone, so
every moved number must move by the same amount on all 8 rows of a
subject (query, skip and chunk size vary across them), and RAM peaks and
DSP round trips must not move at all. The change in
`total_seconds` must then be exactly the e-gate's price of the moved
counters plus a whole number of hashed bytes, the same on every row of the
subject. Chunk bytes, events and transitions, which vary across a
subject's rows, would break that.

Usage:
  git show <old-commit>:tests/soe_test.cc > /tmp/old_soe_test.cc
  scripts/golden_delta.py /tmp/old_soe_test.cc tests/soe_test.cc

Prints the per-subject deltas and exits non-zero if any row breaks the
rule above. Tables recorded while containers had a second integrity mode
carry a mode column after the chunk size; their `false` (chunk-MAC) rows
are read without it and their `true` rows are ignored, so an old table
compares against the current grid.
"""
import re
import struct
import sys

# The e-gate profile (src/soe/card_profile.h).
LINK_BYTES_PER_SEC = 2048.0
APDU_LATENCY_SEC = 0.002
CPU_HZ = 33.0e6
CYCLES_PER_BYTE_DECRYPT = 48.0
CYCLES_PER_BYTE_HASH = 64.0

ROW = re.compile(
    r'\{"(\w+)", (true|false), (true|false), (\d+), (?:(true|false), )?'
    r'(\d+), (\d+), (\d+), (\d+), (\d+), (\d+), 0x([0-9a-f]+)ull\}')
ROWS_PER_GRID = 24


def rows(path):
    out = {}
    for m in ROW.finditer(open(path).read()):
        if m[5] == "true":
            continue  # a row of the retired second integrity mode
        key = (m[1], m[2], m[3], int(m[4]))
        bits = int(m[12], 16)
        out[key] = {
            "ram_peak": int(m[6]),
            "evaluator_peak": int(m[7]),
            "transferred": int(m[8]),
            "decrypted": int(m[9]),
            "apdus": int(m[10]),
            "dsp_trips": int(m[11]),
            "total_seconds": struct.unpack("<d", struct.pack("<Q", bits))[0],
        }
    return out


def main(old_path, new_path):
    old, new = rows(old_path), rows(new_path)
    if len(old) != ROWS_PER_GRID or set(old) != set(new):
        print(f"error: expected the same {ROWS_PER_GRID} rows, "
              f"got {len(old)} and {len(new)}")
        return 1
    failures = 0
    deltas = {}
    for key in sorted(old):
        o, n = old[key], new[key]
        for field in ("ram_peak", "evaluator_peak", "dsp_trips"):
            if o[field] != n[field]:
                print(f"FAIL {key}: {field} moved {o[field]} -> {n[field]}")
                failures += 1
        d = {f: n[f] - o[f] for f in ("transferred", "apdus", "decrypted")}
        priced = (d["transferred"] / LINK_BYTES_PER_SEC +
                  d["apdus"] * APDU_LATENCY_SEC +
                  d["decrypted"] * CYCLES_PER_BYTE_DECRYPT / CPU_HZ)
        rest = n["total_seconds"] - o["total_seconds"] - priced
        hashed = rest * CPU_HZ / CYCLES_PER_BYTE_HASH
        d["hashed"] = round(hashed)
        if abs(hashed - d["hashed"]) > 1e-3:
            print(f"FAIL {key}: total_seconds moved by {rest:.3e} s beyond "
                  f"the priced rule terms, not a whole number of hashed "
                  f"bytes ({hashed:.4f})")
            failures += 1
        d["total_seconds"] = n["total_seconds"] - o["total_seconds"]
        subject = key[0]
        if subject not in deltas:
            deltas[subject] = d
            continue
        for field in ("transferred", "apdus", "decrypted", "hashed"):
            if d[field] != deltas[subject][field]:
                print(f"FAIL {key}: {field} moved by {d[field]}, "
                      f"other {subject} rows by {deltas[subject][field]}")
                failures += 1
    for subject, d in sorted(deltas.items()):
        print(f"{subject}: transferred {d['transferred']:+d} B, "
              f"apdus {d['apdus']:+d}, hashed {d['hashed']:+d} B, "
              f"decrypted {d['decrypted']:+d} B, "
              f"total_seconds {d['total_seconds'] * 1e3:+.3f} ms on every row")
    print("ok: only rule terms moved" if failures == 0
          else f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))

#!/usr/bin/env python3
"""Entry-for-entry comparison of two `hermes-bench -metrics` dumps.

    scripts/cmp_metrics.py [--drop REGEX]... [--drop-zero REGEX]... parent.json new.json

A change that removes or adds rows on purpose proves that nothing else moved
by dropping exactly those rows from both sides: --drop removes every row whose
name matches, --drop-zero only those that also read 0 (a row registered where
it could never advance). Everything left must be equal: name, kind, unit, help
and every value. Exit 1 on the first dump that differs, with each differing
row printed.
"""
import argparse
import json
import re
import sys


def load(path, drop, drop_zero):
    with open(path) as f:
        dump = json.load(f)
    keep = lambda r: not (
        any(p.search(r["name"]) for p in drop)
        or (r.get("value", 0) == 0 and not r.get("values")
            and any(p.search(r["name"]) for p in drop_zero)))
    return {exp: {cell: {r["name"]: r for r in rows if keep(r)} for cell, rows in cells.items()}
            for exp, cells in dump.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--drop", action="append", default=[], type=re.compile)
    ap.add_argument("--drop-zero", action="append", default=[], type=re.compile)
    ap.add_argument("parent")
    ap.add_argument("new")
    args = ap.parse_args()
    a, b = (load(p, args.drop, args.drop_zero) for p in (args.parent, args.new))
    rows = bad = 0
    for exp in sorted(set(a) | set(b)):
        for cell in sorted(set(a.get(exp, {})) | set(b.get(exp, {}))):
            ra, rb = a.get(exp, {}).get(cell, {}), b.get(exp, {}).get(cell, {})
            for name in sorted(set(ra) | set(rb)):
                rows += 1
                if ra.get(name) != rb.get(name):
                    bad += 1
                    print(f"DIFF {exp}/{cell}/{name}:\n  parent {str(ra.get(name))[:300]}\n  new    {str(rb.get(name))[:300]}")
    print(f"{'FAIL' if bad else 'ok'}: {rows} rows compared, {bad} differ")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Says where two BENCH_workload.json files differ.

    python3 tools/bench_json_diff.py COMMITTED REGENERATED

Prints every top-level section that differs and, for the `runs` and
`poisson` sections, every row that was removed, added or changed (rows
keyed by n/mode/policy). Exits 1 when the files differ as JSON, 0 when
they are equal. It only locates a difference: `cmp` stays the
byte-identity gate.
"""
import json
import sys

ROW_KEYS = ("n", "mode", "policy")


def rows_by_key(rows):
    return {tuple(row.get(k) for k in ROW_KEYS if k in row): row
            for row in rows}


def diff_rows(section, old_rows, new_rows):
    old, new = rows_by_key(old_rows), rows_by_key(new_rows)
    for key, row in old.items():
        if key not in new:
            print("  %s: removed row %s" % (section, key))
        elif new[key] != row:
            changed = sorted(k for k in row.keys() | new[key].keys()
                             if row.get(k) != new[key].get(k))
            print("  %s: changed row %s: %s" % (
                section, key, ", ".join("%s %s -> %s" % (
                    k, row.get(k), new[key].get(k)) for k in changed)))
    for key in new:
        if key not in old:
            print("  %s: added row %s" % (section, key))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        old = json.load(f)
    with open(sys.argv[2]) as f:
        new = json.load(f)
    differs = False
    for section in list(old) + [s for s in new if s not in old]:
        if old.get(section) == new.get(section):
            continue
        differs = True
        print("section differs: %s" % section)
        if section == "runs":
            diff_rows("runs", old.get("runs", []), new.get("runs", []))
        elif section == "poisson":
            diff_rows("poisson.runs", old.get("poisson", {}).get("runs", []),
                      new.get("poisson", {}).get("runs", []))
    sys.exit(1 if differs else 0)


if __name__ == "__main__":
    main()

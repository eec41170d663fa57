#!/usr/bin/env python3
"""Says where two BENCH_workload.json files differ.

    python3 tools/bench_json_diff.py COMMITTED REGENERATED

Prints every top-level section that differs and, for the sections made of
rows, every row that was removed, added or changed:

    runs           rows keyed by n/mode/policy
    poisson.runs   rows keyed by policy
    shared.points  rows keyed by n/overlap
    serve.points   one row per load, one per (load, tenant)
    shard.sweep    rows keyed by shards

A changed scalar field of a section (e.g. serve's mean_service_seconds)
is named too. Every other section is walked field by field and named by
dotted path (e.g. mixed.baseline.p95_seconds), with these nested row
lists keyed like the sections above and their row fields flattened
(e.g. on.seconds):

    mixed.mixed.writer_sweep   rows keyed by writers/admission
    summary.cases              rows keyed by name

Exits 1 when the files differ as JSON, 0 when they are
equal. It only locates a difference: `cmp` stays the byte-identity gate.
"""
import json
import sys


def serve_rows(section):
    """Flattens serve points: the point's own fields keyed by load, and
    each tenant's fields keyed by (load, tenant name)."""
    rows = []
    for point in section.get("points", []):
        rows.append({k: v for k, v in point.items() if k != "tenants"})
        for tenant in point.get("tenants", []):
            rows.append(dict(tenant, load=point.get("load"),
                             tenant=tenant.get("name")))
    return rows


# section -> (label, rows extractor, key fields, field holding the rows)
ROW_SECTIONS = {
    "runs": ("runs", lambda s: s, ("n", "mode", "policy"), None),
    "poisson": ("poisson.runs", lambda s: s.get("runs", []),
                ("n", "mode", "policy"), "runs"),
    "shared": ("shared.points", lambda s: s.get("points", []),
               ("n", "overlap"), "points"),
    "serve": ("serve.points", serve_rows, ("load", "tenant"), "points"),
    "shard": ("shard.sweep", lambda s: s.get("sweep", []), ("shards",),
              "sweep"),
}


# dotted path of a row list nested in a section -> key fields
NESTED_ROWS = {
    "mixed.mixed.writer_sweep": ("writers", "admission"),
    "summary.cases": ("name",),
}


def flatten(value, prefix=""):
    """Maps the dotted path of every non-dict leaf below `value` to it."""
    if not isinstance(value, dict):
        return {prefix: value}
    out = {}
    for k, v in value.items():
        out.update(flatten(v, prefix + "." + k if prefix else k))
    return out


def diff_nested(path, old, new):
    """Names every changed field below `path`, and the changed rows of
    the row lists in NESTED_ROWS."""
    if path in NESTED_ROWS:
        diff_rows(path, [flatten(r) for r in old or []],
                  [flatten(r) for r in new or []], NESTED_ROWS[path])
    elif isinstance(old, dict) and isinstance(new, dict):
        for k in list(old) + [k for k in new if k not in old]:
            if old.get(k) != new.get(k):
                diff_nested(path + "." + k, old.get(k), new.get(k))
    else:
        print("  %s: changed field: %s -> %s" % (path, old, new))


def rows_by_key(rows, keys):
    return {tuple(row.get(k) for k in keys if k in row): row for row in rows}


def diff_rows(label, old_rows, new_rows, keys):
    old, new = rows_by_key(old_rows, keys), rows_by_key(new_rows, keys)
    for key, row in old.items():
        if key not in new:
            print("  %s: removed row %s" % (label, key))
        elif new[key] != row:
            changed = sorted(k for k in row.keys() | new[key].keys()
                             if row.get(k) != new[key].get(k))
            print("  %s: changed row %s: %s" % (
                label, key, ", ".join("%s %s -> %s" % (
                    k, row.get(k), new[key].get(k)) for k in changed)))
    for key in new:
        if key not in old:
            print("  %s: added row %s" % (label, key))


def diff_fields(section, old, new, rows_field):
    if not isinstance(old, dict) or not isinstance(new, dict):
        return
    for k in sorted(old.keys() | new.keys()):
        if k != rows_field and old.get(k) != new.get(k):
            print("  %s: changed field %s: %s -> %s" % (
                section, k, old.get(k), new.get(k)))


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
        if section not in ROW_SECTIONS:
            diff_nested(section, old.get(section), new.get(section))
            continue
        label, rows, keys, rows_field = ROW_SECTIONS[section]
        empty = [] if rows_field is None else {}
        old_section = old.get(section, empty)
        new_section = new.get(section, empty)
        if rows_field is not None:
            diff_fields(section, old_section, new_section, rows_field)
        diff_rows(label, rows(old_section), rows(new_section), keys)
    sys.exit(1 if differs else 0)


if __name__ == "__main__":
    main()

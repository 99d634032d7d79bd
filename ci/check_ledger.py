#!/usr/bin/env python3
"""CI ledger-smoke validator.

Validates a run-ledger NDJSON file written by the bench binaries'
`--ledger PATH` flag:

  * every line is a standalone well-formed JSON object;
  * every record carries schema version 1, the identifying fields
    (source, workload, seed, config), a work section with a cycle
    count, and a wall section;
  * wall-clock data lives only under the `wall` key (the determinism
    quarantine: nothing outside `wall` may carry seconds or rates).

With `--compare OTHER.ndjson` it additionally strips the `wall`
section from every record in both files and requires the remaining
deterministic views to be byte-identical line by line — the cross
`--jobs` determinism gate.

Usage: check_ledger.py LEDGER.ndjson [--compare OTHER.ndjson]
"""

import json
import sys

SCHEMA_VERSION = 1
WALL_KEYS = {"elapsed_s", "cycles_per_sec", "flits_per_sec", "pool",
             "wall_s", "eta_s"}


def fail(msg: str) -> None:
    print(f"check_ledger: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> list:
    records = []
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{n}: not valid JSON: {e}")
            if not isinstance(obj, dict):
                fail(f"{path}:{n}: line is not a JSON object")
            records.append((n, obj))
    if not records:
        fail(f"{path} holds no records")
    return records


def validate(path: str, records: list) -> None:
    for n, obj in records:
        where = f"{path}:{n}"
        if obj.get("schema") != SCHEMA_VERSION:
            fail(f"{where}: schema version {obj.get('schema')!r}, "
                 f"expected {SCHEMA_VERSION}")
        for key in ("source", "workload", "config"):
            if not isinstance(obj.get(key), str):
                fail(f"{where}: missing string field {key!r}")
        if not isinstance(obj.get("seed"), int):
            fail(f"{where}: missing integer field 'seed'")
        if not isinstance(obj.get("pass"), bool):
            fail(f"{where}: missing boolean field 'pass'")
        work = obj.get("work")
        if not isinstance(work, dict) or not isinstance(
                work.get("cycles"), int):
            fail(f"{where}: work section has no cycle count")
        if not isinstance(obj.get("wall"), dict):
            fail(f"{where}: missing wall section")
        # Quarantine: wall-clock field names must not leak outside wall.
        for section, body in obj.items():
            if section == "wall" or not isinstance(body, dict):
                continue
            leaked = WALL_KEYS & set(body)
            if leaked:
                fail(f"{where}: wall-clock fields {sorted(leaked)} "
                     f"outside the wall section ({section})")


def deterministic_lines(records: list) -> list:
    out = []
    for _, obj in records:
        view = {k: v for k, v in obj.items() if k != "wall"}
        out.append(json.dumps(view, sort_keys=False,
                              separators=(",", ":")))
    return out


def main() -> None:
    argv = sys.argv[1:]
    if not argv or len(argv) not in (1, 3) or (
            len(argv) == 3 and argv[1] != "--compare"):
        fail("usage: check_ledger.py LEDGER.ndjson "
             "[--compare OTHER.ndjson]")
    path = argv[0]
    records = load(path)
    validate(path, records)
    if len(argv) == 3:
        other_path = argv[2]
        other = load(other_path)
        validate(other_path, other)
        mine, theirs = deterministic_lines(records), deterministic_lines(other)
        if len(mine) != len(theirs):
            fail(f"{path} has {len(mine)} records, "
                 f"{other_path} has {len(theirs)}")
        for i, (a, b) in enumerate(zip(mine, theirs), 1):
            if a != b:
                fail(f"deterministic views diverge at record {i}:\n"
                     f"  {path}: {a}\n  {other_path}: {b}")
        print(f"check_ledger: ok ({len(mine)} records, deterministic "
              f"views identical across both ledgers)")
    else:
        print(f"check_ledger: ok ({len(records)} records)")


if __name__ == "__main__":
    main()

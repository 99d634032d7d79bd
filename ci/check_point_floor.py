#!/usr/bin/env python3
"""CI benchmark-smoke tripwire for a timer in the service's per-point path.

Reads the output of a traced `svc_warm_short` benchmark run (the result
line is the last line, JSON) and fails when `service.point_ms_p50` is
at or above 20 ms. A warm 300-cycle grid point costs about a
millisecond of work; a delayed-ACK stall (a socket opened without
`TCP_NODELAY`) costs about 40 ms. This is an order-of-magnitude check,
not a timing gate.

Usage: check_point_floor.py BENCHMARK_OUTPUT.txt
"""

import json
import sys

METRIC = "service.point_ms_p50"
LIMIT_MS = 20.0


def fail(msg: str) -> None:
    print(f"check_point_floor: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: check_point_floor.py BENCHMARK_OUTPUT.txt")
    with open(sys.argv[1], encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        fail(f"{sys.argv[1]} is empty")
    try:
        result = json.loads(lines[-1])
        value = float(result["metrics"][METRIC]["value"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        fail(f"last line carries no {METRIC}: {e!r}")
    if result.get("correct") is not True:
        fail("the run did not report correct: true")
    if value >= LIMIT_MS:
        fail(
            f"{METRIC} = {value:.2f} ms (limit {LIMIT_MS:.0f} ms): "
            "a timer is back in the per-point path"
        )
    print(f"check_point_floor: ok: {METRIC} = {value:.2f} ms")


if __name__ == "__main__":
    main()

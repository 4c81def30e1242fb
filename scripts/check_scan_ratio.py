#!/usr/bin/env python3
"""Tripwire: a served top-k scan costs no more than twice its dots.

Reads the stdout of a traced perf-ledger run (``--trace 1``; a traced
run of any workload probes every layer) on stdin, takes the JSON on its
last line, and compares two probes of that one process:
``serve.recommend_us`` — a top-10 scan of the ``mf_serve`` model's 4 000
items — against 4 000 × ``dsm.dot_ns``, the same dots run back to back.
A same-process ratio, so the box's speed cancels: ≈ 3.5–5 when every
``(id, score)`` pair was materialized and sorted, ≈ 0.3–0.75 for the
streaming selector over lane panels.

Exit status is non-zero when the scan costs more than twice its dots.
"""

import json
import sys

ITEMS = 4000
LIMIT = 2.0

metrics = json.loads(sys.stdin.read().strip().splitlines()[-1])["metrics"]
scan_ns = metrics["serve.recommend_us"]["value"] * 1000
dots_ns = ITEMS * metrics["dsm.dot_ns"]["value"]
ratio = scan_ns / dots_ns
print(f"top-k scan {scan_ns:.0f} ns / its {ITEMS} dots {dots_ns:.0f} ns = {ratio:.2f} (limit {LIMIT})")
sys.exit(ratio > LIMIT)

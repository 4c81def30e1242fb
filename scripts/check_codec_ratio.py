#!/usr/bin/env python3
"""Tripwire: marshalling a dense partition costs about what copying it does.

Reads the stdout of a traced perf-ledger run (``--trace 1``; a traced
run of any workload probes every layer) on stdin, takes the JSON on its
last line, and compares three probes of that one process over the same
partition: ``dsm.ckpt_encode_mb_s`` and ``dsm.ckpt_decode_mb_s`` — a
checkpoint image made from, and turned back into, a ``DistArray<f32>``
— against ``net.msg_codec_mb_s``, a plain copy of the same bytes into a
message body and a zero-copy slice back out. A same-process ratio, so
the box's speed cancels: ≈ 0.06–0.14 when every ``f32`` went through its
own buffer call, ≥ 0.5 for the slice codec (one pass per side).

Exit status is non-zero when the slower codec direction runs below a
quarter of the copy.
"""

import json
import sys

LIMIT = 0.25

metrics = json.loads(sys.stdin.read().strip().splitlines()[-1])["metrics"]
encode = metrics["dsm.ckpt_encode_mb_s"]["value"]
decode = metrics["dsm.ckpt_decode_mb_s"]["value"]
copy = metrics["net.msg_codec_mb_s"]["value"]
ratio = min(encode, decode) / copy
print(
    f"checkpoint encode {encode:.0f} MB/s, decode {decode:.0f} MB/s / "
    f"message copy {copy:.0f} MB/s = {ratio:.2f} (limit {LIMIT})"
)
sys.exit(ratio < LIMIT)

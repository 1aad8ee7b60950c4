#!/usr/bin/env python3
"""Compare two saved benchmark records: ``compare.py BASE.json NEW.json``.

Both files are what ``run.py --save`` writes (key ``WORKLOAD/traceN``).
Refuses, with exit code 2, to compare records made on different kernel
paths (numba against interpreted kernels). End-to-end metrics are flagged
when the new value is worse than the base by more than the bound in
``BENCHMARK.json``; per-layer metrics are listed without a verdict.
"""

import json
import os
import sys

KERNEL_KEYS = ("kernel_path", "numba_enabled", "BAGROWTH_DISABLE_NUMBA")
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    bench = load(BENCHMARK) if os.path.exists(BENCHMARK) else {}
    specs = {m["name"]: m for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}
    worse = 0
    for key in sorted(set(base) & set(new)):
        b_env, n_env = base[key]["env"], new[key]["env"]
        diff = [k for k in KERNEL_KEYS if b_env.get(k) != n_env.get(k)]
        if diff:
            print(f"{key}: refusing to compare, kernel path differs in "
                  + ", ".join(f"{k} ({b_env.get(k)} vs {n_env.get(k)})" for k in diff),
                  file=sys.stderr)
            return 2
        print(f"== {key}  base {b_env.get('git_sha')} seed {b_env.get('seed')}  "
              f"new {n_env.get('git_sha')} seed {n_env.get('seed')}")
        for name, b in base[key]["metrics"].items():
            if name not in new[key]["metrics"]:
                continue
            bv, nv = b["value"], new[key]["metrics"][name]["value"]
            change = (nv - bv) / bv if bv else float("nan")
            spec = specs.get(name, {})
            verdict = ""
            if "bound" in spec:
                sign = 1 if spec["better"] == "lower" else -1
                bad = sign * change > spec["bound"]
                worse += bad
                verdict = "WORSE than bound" if bad else "within bound"
            print(f"  {name:34s} {bv:12.6g} -> {nv:12.6g} {b['unit']:6s} "
                  f"{change:+8.1%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

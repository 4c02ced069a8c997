#!/usr/bin/env python3
"""Recompute perfbench/expected_betti.json with the sympy oracle.

Run from the repository root: python3 perfbench/make_expected.py
It reads the corpus JSON files directly and does not import poisgeo.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import oracles, specgen  # noqa: E402
from perfbench.workloads import BETTI_WINDOWS, EXPECTED_PATH, MANIFOLDS  # noqa: E402

CORPUS = os.path.join(os.path.dirname(HERE), "src", "poisgeo", "corpus")


def spec_json(name):
    if name == "so3_plus_line":
        return specgen.so3_plus_line_spec()
    with open(os.path.join(CORPUS, f"{name}.json")) as fh:
        return json.load(fh)


def main():
    charts = {}

    def chart(name):
        if name not in charts:
            spec = spec_json(name)
            charts[name] = oracles.SympyPoisson(spec["coordinates"], spec["pi"])
        return charts[name]

    windows = {}
    for name, p, d, kind in BETTI_WINDOWS:
        if kind == "dpi2":
            if not chart(name).squared_is_zero(p, d):
                raise SystemExit(f"{name}: d_pi^2 != 0 at p={p} d={d}")
            continue
        windows[f"{name}:{p}:{d}"] = chart(name).betti(p, d)
        print(f"{name} p={p} d={d}: {windows[f'{name}:{p}:{d}']}", flush=True)
    corpus = {name: chart(name).betti(1, 2) for name in MANIFOLDS}
    out = {"windows": windows, "corpus_cohomology_p1_d2": corpus}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Seeded input generators: the check_generated family and the 4-D chart.

Polynomials here are small dicts {exponent tuple: int}; the generator
formats them as spec expression strings itself, so poisgeo only ever sees
the written files.
"""

import json
import random
from itertools import combinations

COORDS = ("x", "y", "z")
LINEAR = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# Positive on all of R^3, so the cometric is valid, and not constant, so the
# Levi-Civita connection is not flat.
CURVED_ENTRIES = ("1+x^2", "1+y^2", "1+z^2", "2+y^2", "1/(1+z^2)", "1/(1+x^2)")
PERTURBED_SHARE = 4  # one spec in four gets one perturbed bivector entry


def _mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _diff(a, i):
    out = {}
    for m, c in a.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
    return out


def poly_str(p):
    """Expression string in the spec syntax ('0' for the zero polynomial)."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=lambda m: (-sum(m), m)):
        c = p[m]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(COORDS, m) if e]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts)
    return text[1:] if text[0] == "+" else text


def _nonzero(r, bound=3):
    return r.choice([k for k in range(-bound, bound + 1) if k])


def _sub(a, b):
    return _add(a, {m: -c for m, c in b.items()})


def jacobiator_3d(entries):
    """v . curl v for the vector field v dual to a 3-D bivector.

    It vanishes exactly when the bivector satisfies the Jacobi identity.
    ``entries`` maps the upper index pairs (0,1), (0,2), (1,2) to polynomials.
    """
    v = [entries.get((1, 2), {}), {m: -c for m, c in entries.get((0, 2), {}).items()},
         entries.get((0, 1), {})]
    curl = [_sub(_diff(v[(k + 2) % 3], (k + 1) % 3), _diff(v[(k + 1) % 3], (k + 2) % 3))
            for k in range(3)]
    out = {}
    for k in range(3):
        out = _add(out, _mul(v[k], curl[k]))
    return out


def _fixed_order(items):
    items = list(items)
    random.Random("structures").shuffle(items)
    return tuple(items)


def _bivector(pair, f, coeffs, key=None, mono=None, c=0):
    """Upper entries of f * eps_ijk * dC/dx_k, C = sum coeffs[u] x_u^2.

    With ``key``, adds c * x_mono to that entry.
    """
    casimir = {tuple(2 if k == u else 0 for k in range(3)): coeffs[u] for u in pair}
    grad = [_mul(f, _diff(casimir, k)) for k in range(3)]
    # (0,1) = f dC/dz, (1,2) = f dC/dx, (0,2) = -f dC/dy
    entries = {(0, 1): grad[2], (1, 2): grad[0], (0, 2): {m: -c for m, c in grad[1].items()}}
    if key is not None:
        entries[key] = _add(entries[key], {LINEAR[mono]: c})
    return entries


_PAIRS = tuple(combinations(range(3), 2))
# Structures are fixed and cycled in one fixed order, so every seed sends
# the same mix; the seed draws the coefficients and the sample points.
# Unperturbed: (Casimir squares u, v; f = 1 (None) or c * x_k; curved
# cometric position; curved entry).
UNPERTURBED = _fixed_order(
    (pair, f, pos, entry)
    for pair in _PAIRS for f in (None, 0, 1, 2)
    for pos in range(3) for entry in CURVED_ENTRIES
)
# Perturbed: (Casimir squares u, v; bivector entry; added linear monomial).
PERTURBED = _fixed_order(
    (pair, key, mono)
    for pair in _PAIRS for key in ((0, 1), (0, 2), (1, 2)) for mono in range(3)
    if jacobiator_3d(_bivector(pair, {(0, 0, 0): 1}, {pair[0]: 1, pair[1]: 1}, key, mono, 1))
)


def generated_spec(seed, index):
    """The index-th spec of the seed's stream, as (spec dict, perturbed flag).

    pi_ij = f * eps_ijk * dC/dx_k with the quadric Casimir C = a u^2 + b v^2,
    so pi is Poisson by construction.  The family is sized by structure, not
    by a time filter: mixed Casimir terms, a linear f with a constant part,
    or a perturbed pi over a curved metric each push single specs from tens
    of milliseconds to tens of seconds of gcd swell.  Unperturbed specs get
    f = 1 or a linear monomial and one curved diagonal cometric entry.
    Every PERTURBED_SHARE-th spec has f = 1, the identity cometric and one
    linear monomial added to one bivector entry, with a nonzero jacobiator.
    """
    r = random.Random(f"{seed}:{index}")
    block, slot = divmod(index, PERTURBED_SHARE)
    perturbed = slot == PERTURBED_SHARE - 1
    diag = ["1", "1", "1"]
    if perturbed:
        pair, key, mono = PERTURBED[block % len(PERTURBED)]
        entries = {}
        while not jacobiator_3d(entries):
            coeffs = {u: _nonzero(r) for u in pair}
            entries = _bivector(pair, {(0, 0, 0): 1}, coeffs, key, mono, _nonzero(r))
    else:
        unperturbed_before = block * (PERTURBED_SHARE - 1) + slot
        pair, f_var, pos, entry = UNPERTURBED[unperturbed_before % len(UNPERTURBED)]
        f = {(0, 0, 0): 1} if f_var is None else {LINEAR[f_var]: _nonzero(r, 2)}
        entries = _bivector(pair, f, {u: _nonzero(r) for u in pair})
        diag[pos] = entry
    samples = [[r.randint(-2, 2) for _ in range(3)] for _ in range(2)]
    spec = {
        "name": f"gen-{seed}-{index}",
        "coordinates": list(COORDS),
        "pi": [[i, j, poly_str(p)] for (i, j), p in sorted(entries.items()) if p],
        "cometric": [[k, k, diag[k]] for k in range(3)],
        "declared_rank": 2,
        "samples": samples,
    }
    return spec, perturbed


def so3_plus_line_spec():
    """so(3)* extended by a Casimir line: the 4-D chart of betti_windows."""
    return {
        "name": "so3-plus-line",
        "coordinates": ["x", "y", "z", "w"],
        "pi": [[0, 1, "z"], [0, 2, "-y"], [1, 2, "x"]],
        "cometric": [[k, k, "1"] for k in range(4)],
        "declared_rank": 2,
        "samples": [[1, 1, 1, 1], [1, 2, 3, 4]],
    }


def spec_bytes(spec):
    return (json.dumps(spec, indent=2) + "\n").encode("utf-8")

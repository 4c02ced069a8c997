"""A fully curved parallel structure obtained by transporting the flat one.

Pushing the standard plane bivector and euclidean cometric through the
polynomial chart change (x, y, c) -> (x, y, xy + c) gives

    pi = dd_x ^ dd_y + x dd_x ^ dd_z - y dd_y ^ dd_z,
    <,> = J J^T = [[1, 0, y], [0, 1, x], [y, x, 1 + x^2 + y^2]],

whose leaves are the graphs z = xy + c.  Everything about it is known by
transport, so this is an independent end-to-end oracle with nonconstant
kernel and leaf frames: the engine must certify it and round-trip it
exactly.  It is also the structure that separates the unconditional
bracket/Lie identity (perp pairs against the normal frame) from the
coordinate-pair variant, which genuinely fails off constant frames.
"""

import pytest

from poisgeo import (
    Bivector,
    Chart,
    CoMetric,
    OneForm,
    ScalarField,
    bundle_like_report,
    foliate_report,
    invariance_report,
    is_riemann_poisson,
    levi_civita,
    parse_scalar,
    round_trip,
    split_cotangent,
    truncated_betti,
)
from poisgeo.foliation import (
    basic_form_family,
    leaf_connection,
    parallel_omega_residuals,
)

CH = Chart(["x", "y", "z"])
SAMPLES = [[0, 0, 0], [1, 1, 2], [-1, 2, 1]]


def P(s):
    return parse_scalar(s, CH)


@pytest.fixture(scope="module")
def structure():
    pi = Bivector.from_upper(CH, {(0, 1): P("1"), (0, 2): P("x"), (1, 2): P("-y")})
    g = CoMetric.from_upper(
        CH,
        {
            (0, 0): P("1"),
            (0, 2): P("y"),
            (1, 1): P("1"),
            (1, 2): P("x"),
            (2, 2): P("1+x^2+y^2"),
        },
    )
    return pi, g


@pytest.fixture(scope="module")
def split(structure):
    pi, g = structure
    return split_cotangent(pi, g, 2, SAMPLES)


def test_certified_parallel(structure):
    pi, g = structure
    g.validate(SAMPLES)
    assert pi.is_poisson()
    assert is_riemann_poisson(pi, g)
    D = levi_civita(pi, g)
    assert any(
        not D.coefficient(i, j, k).is_zero
        for i in range(3)
        for j in range(3)
        for k in range(3)
    )


def test_frames_are_nonconstant(split):
    kappa = split.kernel_frame[0]
    assert kappa == P("y") * OneForm.basis(CH, 0) + P("x") * OneForm.basis(
        CH, 1
    ) - OneForm.basis(CH, 2)
    assert any(not c.is_constant for t in split.ts_frame for c in t.comps)


def test_casimirs_are_functions_of_the_leaf_label(structure):
    pi, _ = structure
    assert pi.is_casimir(P("z-x*y"))
    assert pi.is_casimir(P("(z-x*y)^2"))
    assert not pi.is_casimir(P("z"))
    assert not pi.is_casimir(P("x*y"))


def test_invariance_distinguishes_the_two_bracket_checks(structure, split):
    pi, g = structure
    rep = invariance_report(split, True)
    assert rep["bracket_vs_lie_ok"]          # perp pairs vs normal frame
    assert rep["perp_invariance_ok"]
    assert not rep["coordinate_bracket_ok"]  # coordinate pairs genuinely differ
    assert any(not r.is_zero for _, r in rep["coordinate_bracket_residuals"])


def test_leaf_geometry_parallel(structure, split):
    pi, g = structure
    D = levi_civita(pi, g)
    nabla = leaf_connection(D, split)
    residuals = parallel_omega_residuals(split, nabla)
    assert all(v.is_zero for v in residuals.values())


def test_foliate_predicates_and_bundle_like(structure, split):
    pi, g = structure
    D = levi_civita(pi, g)
    kappa = split.kernel_frame[0]
    rep = foliate_report(split, kappa, D)
    assert all(rep.values()), rep
    family = basic_form_family(pi, 2)
    assert len(family) == 1  # only constant Casimir monomials exist
    bl = bundle_like_report(split)
    assert bl["ok"]


def test_round_trip_exact(structure):
    pi, g = structure
    result = round_trip(pi, g, 2, SAMPLES)
    assert result["pi_equal"] and result["cometric_equal"]


def test_windowed_casimir_count(structure):
    """b0 in window 4 counts 1, (z-xy), (z-xy)^2."""
    pi, _ = structure
    assert truncated_betti(pi, 0, 4)["betti"] == 3
    assert truncated_betti(pi, 0, 2)["betti"] == 2


def test_cli_certifies_it(tmp_path, capsys):
    import json

    from poisgeo.cli import main

    spec = {
        "name": "curved-graph-leaves",
        "coordinates": ["x", "y", "z"],
        "pi": [[0, 1, "1"], [0, 2, "x"], [1, 2, "-y"]],
        "cometric": [
            [0, 0, "1"],
            [0, 2, "y"],
            [1, 1, "1"],
            [1, 2, "x"],
            [2, 2, "1+x^2+y^2"],
        ],
        "declared_rank": 2,
        "samples": [[0, 0, 0], [1, 1, 2], [-1, 2, 1]],
    }
    path = tmp_path / "curved.json"
    path.write_text(json.dumps(spec))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "riemann_poisson: pass" in out
    assert "leaf_connection_parallel: pass" in out

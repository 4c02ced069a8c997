"""bundle_like_report on a structure whose basic pairings are not Casimirs."""

import json

from poisgeo import bundle_like_report, foliation, load_spec_file, split_cotangent
from poisgeo.connection import CoMetric

# pi = dd_x ^ dd_y and <dz, dz> = 1 + x^2: dz is basic, but
# pi_sharp(d(1 + x^2)) = 2x dd_y, so its pairing is no Casimir.  The CLI
# runs the bundle-like test only on Riemann-Poisson structures, where it
# holds, so this case is reached through the API.
SPEC = {
    "name": "r3-curved-normal",
    "coordinates": ["x", "y", "z"],
    "pi": [[0, 1, "1"]],
    "cometric": [[0, 0, "1"], [1, 1, "1"], [2, 2, "1+x^2"]],
    "declared_rank": 2,
    "samples": [[0, 0, 0], [1, 1, 2]],
}


def _spec_path(tmp_path):
    path = tmp_path / "curved_normal.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


def test_report_fails_once_per_unordered_pair(tmp_path):
    spec = load_spec_file(_spec_path(tmp_path))[1]
    split = split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
    rep = bundle_like_report(split)
    assert rep["ok"] is False
    # z^k dz for the Casimir monomials 1, z, z^2
    assert rep["family_size"] == 3
    kinds = [kind for kind, _, _ in rep["failures"]]
    assert kinds == ["not_casimir"] * 6  # C(3 + 1, 2) unordered pairs, none repeated



def test_each_member_is_sharpened_once(monkeypatch, tmp_path):
    """g_sharp runs once per family member, not twice per unordered pair."""
    spec = load_spec_file(_spec_path(tmp_path))[1]
    split = split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
    sharpened = []
    original = CoMetric.sharp
    monkeypatch.setattr(CoMetric, "sharp", lambda g, a: sharpened.append(a) or original(g, a))
    rep = bundle_like_report(split)
    assert len(sharpened) == rep["family_size"] == 3


def test_family_is_kept_on_the_bivector(monkeypatch, tmp_path):
    spec = load_spec_file(_spec_path(tmp_path))[1]
    split = split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
    built = []
    original = foliation.basic_pform_family
    monkeypatch.setattr(
        foliation, "basic_pform_family", lambda *args: built.append(args) or original(*args)
    )
    reports = [bundle_like_report(split) for _ in range(2)]
    assert reports[0] == reports[1] and built == [(spec.pi, 1, foliation.BUNDLE_LIKE_DEGREE)]

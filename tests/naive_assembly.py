"""Reference assembly of the d_pi window matrices, one d_pi call per column.

Every source basis multivector x^m dd_I goes through ``Bivector.d_pi`` and
its image is read off in the target basis, with the same two WindowTooSmall
checks as ``assemble_dpi_matrix``.
"""

from poisgeo import RationalMatrix
from poisgeo.cohomology import GradedBasis, _dpi_complex
from poisgeo.errors import WindowTooSmall


def naive_dpi_matrix(pi, p, d_in, d_out):
    """(matrix, source basis, target basis) of d_pi from (p, d_in) into (p+1, d_out)."""
    shift = _dpi_complex(pi).shift
    if d_out < d_in + shift:
        raise WindowTooSmall(
            f"target degree bound {d_out} cannot hold the image (need {d_in + shift})"
        )
    source = GradedBasis(pi.chart, p, d_in)
    target = GradedBasis(pi.chart, p + 1, d_out)
    cols = [
        target.sparse_coordinates_of(pi.d_pi(source.element(k)))
        for k in range(len(source))
    ]
    return RationalMatrix.from_columns(cols, len(target)), source, target

"""Reference assembly of the leafwise window matrices, one leafwise_d call per column.

Every source basis form x^m e_I goes through ``foliation.leafwise_d`` and
its image is read off in the target basis, with the same window check as
the shared assembler.
"""

from poisgeo import RationalMatrix
from poisgeo.cohomology import LeafBasis, leafwise_degree_shift
from poisgeo.errors import WindowTooSmall
from poisgeo.foliation import leafwise_d


def naive_leafwise_matrix(split, structure, p, d_in, d_out):
    """(matrix, source basis, target basis) of d_F from (p, d_in) into (p+1, d_out)."""
    shift = leafwise_degree_shift(split, structure)
    if d_out < d_in + shift:
        raise WindowTooSmall(
            f"target degree bound {d_out} cannot hold the image (need {d_in + shift})"
        )
    source = LeafBasis(split, p, d_in)
    target = LeafBasis(split, p + 1, d_out)
    cols = [
        target.sparse_coordinates_of(leafwise_d(split, source.element(k), structure))
        for k in range(len(source))
    ]
    return RationalMatrix.from_columns(cols, len(target)), source, target

"""Reference dense elimination for checking RationalMatrix.

Dense fraction-free (Bareiss) rank and back-substitution kernels over the
pure-Python ``int_row_echelon``, plus the representative choice that re-ranks
the whole stacked matrix for every candidate vector.  Matrices are dense
lists of rows; ``cols`` is passed separately so 0 x n shapes are expressible.
"""

import math
from fractions import Fraction

from poisgeo._kernel_py import int_row_echelon


def int_rows(rows):
    """Each row scaled to integers by the lcm of its denominators."""
    out = []
    for row in rows:
        lcm = 1
        for e in row:
            e = Fraction(e)
            lcm = lcm * e.denominator // math.gcd(lcm, e.denominator)
        out.append([int(Fraction(e) * lcm) for e in row])
    return out


def dense_rank(rows):
    rank, _, _ = int_row_echelon(int_rows(rows))
    return rank


def dense_kernel_basis(rows, cols):
    """Fraction vectors spanning the nullspace, one per free column, ascending."""
    rank, pivot_cols, ech = int_row_echelon(int_rows(rows))
    basis = []
    for f in [c for c in range(cols) if c not in pivot_cols]:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r in range(rank - 1, -1, -1):
            pc = pivot_cols[r]
            acc = Fraction(0)
            for j in range(pc + 1, cols):
                if ech[r][j] and vec[j]:
                    acc += Fraction(ech[r][j]) * vec[j]
            vec[pc] = -acc / ech[r][pc]
        basis.append(vec)
    return basis


def dense_extension(image_cols, vectors):
    """Vectors that raise the rank of the stacked columns, re-ranked each time."""
    chosen = []
    current = list(image_cols)
    rank = dense_rank(current)
    for vec in vectors:
        trial = current + [vec]
        r = dense_rank(trial)  # rank of the columns = rank of them as rows
        if r > rank:
            chosen.append(vec)
            current = trial
            rank = r
    return chosen

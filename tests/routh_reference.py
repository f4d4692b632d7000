"""Routh-Hurwitz count on the sphere-tangent projected Jacobian: an
eigenvalue-free stability verdict that criterion 10c and the stability
tests compare with stability.classify.  Faddeev-LeVerrier is numerically
unstable beyond small matrices, so this serves the three-site checks
only."""

import numpy as np

from dickelattice.model import LatticeParams, MeanFieldState
from dickelattice.stability import Verdict, projected_jacobian


def char_poly(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients, highest power first.

    Faddeev-LeVerrier recursion; no eigenvalue solve involved.
    """
    m = a.shape[0]
    c = np.zeros(m + 1)
    c[0] = 1.0
    mk = np.zeros_like(a)
    for k in range(1, m + 1):
        mk = a @ mk + c[k - 1] * np.eye(m)
        c[k] = -np.trace(a @ mk) / k
    return c


def routh_rhp_count(coeffs) -> int:
    """Number of open-right-half-plane polynomial roots by the Routh table.

    Zero pivots get the standard epsilon substitution; an all-zero row is
    replaced by the derivative of its auxiliary polynomial.
    """
    c = np.asarray(coeffs, float)
    m = len(c) - 1
    if m == 0:
        return 0
    scale = np.max(np.abs(c))
    tiny = 1e-12 * max(scale, 1.0)
    width = (m + 2) // 2 + 1
    row0 = np.zeros(width)
    row1 = np.zeros(width)
    row0[:len(c[0::2])] = c[0::2]
    row1[:len(c[1::2])] = c[1::2]
    table = [row0, row1]
    for i in range(2, m + 1):
        prev = table[i - 1]
        prev2 = table[i - 2]
        if np.all(np.abs(prev) < tiny):
            # auxiliary polynomial from the row above, then differentiate
            deg = m - (i - 2)
            aux = np.zeros(width)
            for j in range(width):
                power = deg - 2 * j
                if power > 0:
                    aux[j] = prev2[j] * power
            prev = aux
            table[i - 1] = prev
        piv = prev[0]
        if abs(piv) < tiny:
            piv = tiny  # epsilon substitution
        new = np.zeros(width)
        for j in range(width - 1):
            new[j] = (piv * prev2[j + 1] - prev2[0] * prev[j + 1]) / piv
        table.append(new)
    first = np.array([row[0] if abs(row[0]) > 0 else tiny for row in table])
    signs = np.sign(first)
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def routh_verdict(state: MeanFieldState, params: LatticeParams):
    """(verdict, right-half-plane count) from the projected Jacobian at
    state.

    Independent of any eigenvalue computation; used to cross-check
    classify.  Cannot flag Marginal, so compare away from boundaries.
    """
    [jac] = projected_jacobian(state.pack()[None], params)
    rhp = routh_rhp_count(char_poly(jac))
    return (Verdict.Stable if rhp == 0 else Verdict.Unstable), rhp

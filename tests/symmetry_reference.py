"""The symmetry operations as the package wrote them before its
symmetry_group table, and the one-state image of a table element the
package used before its roots became packed rows: the references the
table is checked against."""

import numpy as np

from dickelattice import BoundaryCondition, MeanFieldState
from dickelattice.model import symmetry_group


def z2_flip(state: MeanFieldState) -> MeanFieldState:
    """(a, s, z) -> (-a, -s, z), the broken symmetry of the superradiant onset."""
    return MeanFieldState(a=-state.a, s=-state.s, z=state.z)


def cyclic_shift(state: MeanFieldState, r: int = 1) -> MeanFieldState:
    """Shift site j to site j+r (ring geometry)."""
    return MeanFieldState(
        a=np.roll(state.a, r), s=np.roll(state.s, r), z=np.roll(state.z, r))


def reflect(state: MeanFieldState) -> MeanFieldState:
    """Reverse the site order, j -> N+1-j."""
    return MeanFieldState(a=state.a[::-1], s=state.s[::-1], z=state.z[::-1])


def orbit_by_elementary_ops(state, bc):
    """The symmetry orbit as compositions of cyclic_shift, reflect and
    z2_flip: spatial images (shifts by 0..N-1 on the ring; identity and
    reflection on the open chain), then each of them flipped."""
    if bc is BoundaryCondition.Periodic:
        spatial = [cyclic_shift(state, r) for r in range(state.n)]
    else:
        spatial = [state, reflect(state)]
    return spatial + [z2_flip(x) for x in spatial]


def orbit_image(state, k, bc):
    """The image of state under element k of model.symmetry_group, as a
    MeanFieldState."""
    perm, sign = symmetry_group(state.n, bc)
    site, a, s = perm[k, :state.n], state.a, state.s
    if sign[k, 0] < 0:
        a, s = -a, -s
    return MeanFieldState(a=a[site], s=s[site], z=state.z[site])

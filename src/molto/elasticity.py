"""Plane-strain linear elasticity on the fictitious-material design domain.

State and adjoint problems share one assembled operator per support set; void
regions keep a small relative stiffness so the solve stays well posed over
the whole domain. The operator is assembled, factorized and checked on the
free DOFs only: states are zero on the fixed DOFs, whose rows carry the
reactions and are never solved for.

What depends only on the sparsity pattern is done once per support set by
``StiffnessPattern``: it picks the nodes that are condensed out of every
factorization (the cell centres of a crossed mesh), numbers the other free
DOFs so that the condensed operator is banded, maps the element stiffness
straight to the values of the CSC matrix, and maps those values to LAPACK's
band storage. ``FactorizedSystem`` factorizes with a banded Cholesky
(``CondensedCholesky``); its ``solve`` takes one load or several as columns,
and checks each column on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import InvalidArgument, SingularSystemError, SolverFailure
from .mesh import Mesh


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic material with smoothed solid/void interpolation.

    young    : Young's modulus E (N/mm^2)
    poisson  : Poisson ratio
    exponent : interpolation exponent (> 1)
    floor    : relative void stiffness (0 < floor << 1)
    """

    young: float = 1.0
    poisson: float = 0.3
    exponent: float = 3.0
    floor: float = 1e-3

    def __post_init__(self):
        if self.young <= 0.0:
            raise InvalidArgument("Young's modulus must be positive")
        if not 0.0 <= self.poisson < 0.5:
            raise InvalidArgument("Poisson ratio must lie in [0, 0.5)")
        if self.exponent <= 1.0:
            raise InvalidArgument("interpolation exponent must exceed 1")
        if not 0.0 < self.floor < 1.0:
            raise InvalidArgument("stiffness floor must lie in (0, 1)")


def heaviside(phi: np.ndarray, width: float) -> np.ndarray:
    """Smoothed indicator 0.5 * (tanh(2 * width * phi) + 1)."""
    if width <= 0.0:
        raise InvalidArgument("interface width must be positive")
    return 0.5 * (np.tanh(2.0 * width * phi) + 1.0)


def ersatz_tau(theta: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """Relative stiffness (1 - d) * theta^a + d, in [d, 1]."""
    return (1.0 - mat.floor) * np.asarray(theta, dtype=float) ** mat.exponent + mat.floor


def ersatz_dtau(theta: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """Interpolation derivative a * (1 - d) * theta (binary-design reduction)."""
    return mat.exponent * (1.0 - mat.floor) * np.asarray(theta, dtype=float)


def plane_strain_matrix(mat: MaterialParams) -> np.ndarray:
    e, nu = mat.young, mat.poisson
    c = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return c * np.array([
        [1.0 - nu, nu, 0.0],
        [nu, 1.0 - nu, 0.0],
        [0.0, 0.0, (1.0 - 2.0 * nu) / 2.0],
    ])


# ---------------------------------------------------------------------------
# boundary condition descriptors

@dataclass(frozen=True)
class Spring:
    """Distributed boundary spring k * (r outer r) acting along direction r."""
    tag: str
    stiffness: float
    direction: tuple

    def __post_init__(self):
        r = np.asarray(self.direction, dtype=float)
        if abs(np.linalg.norm(r) - 1.0) > 1e-9:
            raise InvalidArgument("spring direction must be a unit vector")
        if self.stiffness < 0.0:
            raise InvalidArgument("spring stiffness must be non-negative")


@dataclass(frozen=True)
class FixedBoundary:
    """Dirichlet constraint on a tagged boundary.

    components: 'both', 'x' or 'y'.
    """
    tag: str
    components: str = "both"


@dataclass(frozen=True)
class PointConstraint:
    node: int
    component: int  # 0 = x, 1 = y


@dataclass
class SparseSystem:
    """Assembled symmetric operator on the free DOFs (homogeneous Dirichlet
    data on the rest); ``free_dofs[i]`` is the global DOF of row/column i."""

    matrix: sp.csc_matrix
    free_dofs: np.ndarray
    pattern: StiffnessPattern


def boundary_vector(mesh: Mesh, tag: str, vector) -> np.ndarray:
    """Consistent nodal vector of a constant traction on a tagged boundary."""
    edges = mesh.edges_with_tag(tag)
    delta = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    lengths = np.hypot(delta[:, 0], delta[:, 1])
    f = np.zeros(2 * mesh.num_nodes)
    vx, vy = float(vector[0]), float(vector[1])
    for comp, val in ((0, vx), (1, vy)):
        if val != 0.0:
            np.add.at(f, 2 * edges[:, 0] + comp, 0.5 * lengths * val)
            np.add.at(f, 2 * edges[:, 1] + comp, 0.5 * lengths * val)
    return f


def spring_matrix(mesh: Mesh, springs) -> sp.csr_matrix:
    """The springs' stiffness: on each tagged edge of length l, the
    consistent line element k l / 6 [[2, 1], [1, 2]] times r r^T."""
    n = 2 * mesh.num_nodes
    rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for spec in springs:
        edges = mesh.edges_with_tag(spec.tag)
        delta = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
        line = np.array([[2.0, 1.0], [1.0, 2.0]])[:, :, None]
        w = spec.stiffness * np.hypot(delta[:, 0], delta[:, 1]) / 6.0 * line
        # entries (a, b, i, j, edge): component i of end a against j of end b
        dof = 2 * edges.T[:, None, :] + np.arange(2)[:, None]  # (a, i, edge)
        shape = (2, 2, 2, 2, len(edges))
        rows.append(np.broadcast_to(dof[:, None, :, None], shape).ravel())
        cols.append(np.broadcast_to(dof[None, :, None], shape).ravel())
        rr = np.outer(spec.direction, spec.direction)
        vals.append((w[:, :, None, None] * rr[:, :, None]).ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


_COMPONENTS = {"both": (0, 1), "x": (0,), "y": (1,)}


def _fixed_dofs(mesh: Mesh, bcs) -> np.ndarray:
    dofs = [np.zeros(0, dtype=np.int64)]
    for bc in bcs:
        if isinstance(bc, PointConstraint):
            dofs.append([2 * bc.node + bc.component])
            continue
        edges = mesh.edges_with_tag(bc.tag)
        comps = _COMPONENTS.get(bc.components)
        if comps is None:
            raise InvalidArgument(f"unknown constraint components '{bc.components}'")
        dofs.extend(2 * edges.ravel() + c for c in comps)
    return np.unique(np.concatenate(dofs))


def strain_displacement(mesh: Mesh) -> np.ndarray:
    """Element B matrices mapping the six element DOFs to engineering
    strains (eps_xx, eps_yy, gamma_xy), (T, 3, 6)."""
    grads = mesh.grads
    b = np.zeros((mesh.num_triangles, 3, 6))
    b[:, 0, 0::2] = grads[:, :, 0]
    b[:, 1, 1::2] = grads[:, :, 1]
    b[:, 2, 0::2] = grads[:, :, 1]
    b[:, 2, 1::2] = grads[:, :, 0]
    return b


def element_stiffness_blocks(mesh: Mesh, mat: MaterialParams) -> np.ndarray:
    """Solid (tau = 1) 6x6 element stiffness matrices B^T D B A, (T, 6, 6)."""
    b = strain_displacement(mesh)
    blocks = np.swapaxes(b, 1, 2) @ plane_strain_matrix(mat) @ b
    blocks *= mesh.element_areas[:, None, None]
    return blocks


def _csc_structure(keys: np.ndarray, m: int):
    """CSC ``indices`` and ``indptr`` of the sorted column-major keys
    ``col * m + row`` of an m x m pattern."""
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // m, minlength=m), out=indptr[1:])
    return (keys % m).astype(np.int32), indptr


def _mesh_edges(mesh: Mesh) -> np.ndarray:
    """Every edge of the mesh once, as ascending node pairs, (E, 2)."""
    tri = mesh.triangles.astype(np.int64)
    pairs = np.sort(np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1)
    # a sort and a difference, several times faster than np.unique here
    keys = np.sort(pairs[:, 0] * mesh.num_nodes + pairs[:, 1])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.column_stack([keys // mesh.num_nodes, keys % mesh.num_nodes])


def _condensed_nodes(mesh: Mesh, edges: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Which nodes the factorization condenses out, bool per node: interior
    nodes with exactly four neighbours and both DOFs free (``free`` is bool
    per DOF), and of two adjacent such nodes only the lower-numbered one.
    On a crossed mesh these are the cell centres; a two-triangle mesh has
    none. Springs act on boundary edges, so no condensed node carries one."""
    condensed = np.bincount(edges.ravel(), minlength=mesh.num_nodes) == 4
    condensed[mesh.boundary_edges] = False
    condensed &= free[0::2] & free[1::2]
    condensed[edges[condensed[edges[:, 0]] & condensed[edges[:, 1]], 1]] = False
    return condensed


def _index_dtype(bound: int):
    """int32 for indices below ``bound`` where they fit, else int64."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


class StiffnessPattern:
    """The design-independent part of the constrained stiffness operator.

    Built once per (mesh, material, springs, supports): the free DOFs in
    elimination order, the CSC sparsity pattern over them, one sparse map
    from the element stiffness tau_e to the CSC values, the summed spring
    entries, and the index arrays that take the CSC values to the banded
    Cholesky factor, so ``assemble_state`` is one sparse product plus the
    springs and a factorization is a few gathers and one LAPACK call.

    Each condensed node (``condensed``, ascending) couples only to its four
    neighbours, so its two DOFs are eliminated exactly, node by node
    (static condensation). The other free DOFs come first, numbered by
    coordinate along the longer side of the bounding box, then along the
    shorter side, then by component; on a structured grid that keeps the
    condensed operator, corner-to-corner fill included, in a thin band. The
    condensed pairs follow, node by node. Entries that touch a fixed DOF
    are dropped.

    The pattern is built from the node pairs of the triangles and springs,
    each standing for its 2x2 DOF entries, and every temporary is freed once
    read, so the build's peak memory stays within about twice what the
    pattern keeps. ``band`` forms the condensed operator's band by gathers
    alone, over the band slots that receive a value (``_band_slots``); the
    other slots of the (kd + 1) x r band are zero.
    """

    def __init__(self, mesh: Mesh, mat: MaterialParams, springs, bcs):
        n = 2 * mesh.num_nodes
        fixed = _fixed_dofs(mesh, bcs)
        if fixed.size == 0 and not springs:
            raise SingularSystemError("no Dirichlet, roller, or spring constraint present")
        springs = spring_matrix(mesh, springs).tocoo()

        free = np.ones(n, dtype=bool)
        free[fixed] = False
        edges = _mesh_edges(mesh)
        condensed = _condensed_nodes(mesh, edges, free)
        self.condensed = centres = np.flatnonzero(condensed)
        kept = np.flatnonzero(free & ~np.repeat(condensed, 2))
        major = int(np.ptp(mesh.nodes[:, 1]) > np.ptp(mesh.nodes[:, 0]))
        xy = mesh.nodes[kept // 2]
        kept = kept[np.lexsort((kept % 2, xy[:, 1 - major], xy[:, major]))]
        self.free_dofs = np.concatenate([kept, (2 * centres[:, None] + [0, 1]).ravel()])
        m, r = self.free_dofs.size, kept.size
        renumber = np.full(n, m, dtype=np.int64)
        renumber[self.free_dofs] = np.arange(m)

        # every (row node, column node) pair of a triangle or a spring once;
        # pair k holds the 2x2 entries between the DOFs of its two nodes
        nodes, num_pairs = mesh.num_nodes, 9 * mesh.num_triangles
        tri = mesh.triangles.astype(np.int64)
        pairs, inverse = np.unique(np.concatenate([
            (tri[:, :, None] * nodes + tri[:, None, :]).ravel(),
            springs.row.astype(np.int64) // 2 * nodes + springs.col // 2]),
            return_inverse=True)
        inverse = inverse.astype(_index_dtype(pairs.size))
        rows = [renumber.take(2 * (pairs // nodes) + i) for i in (0, 1)]
        cols = [renumber.take(2 * (pairs % nodes) + j) for j in (0, 1)]
        del pairs
        # column-major keys sort into CSC order with sorted row indices; the
        # discarded bin m * m sorts after all of them. Entry (i, j) of pair
        # k is key 4k + 2i + j; each is formed along the pairs, since numpy
        # is slow over a short last axis
        keys = np.stack([np.where((rows[i] < m) & (cols[j] < m), cols[j] * m + rows[i], m * m)
                         for i in (0, 1) for j in (0, 1)], axis=1).ravel()
        del rows, cols
        keys, position = np.unique(keys, return_inverse=True)
        nnz = int(np.searchsorted(keys, m * m))
        keys = keys[:nnz]
        position = position.astype(_index_dtype(nnz + 1)).reshape(-1, 2, 2)
        self._indices, self._indptr = _csc_structure(keys, m)
        self._shape = (m, m)
        self._spring_data = None
        if springs.nnz:
            at = position[inverse[num_pairs:], springs.row % 2, springs.col % 2]
            self._spring_data = np.bincount(at, weights=springs.data, minlength=nnz)[:nnz]

        # CSC position of entry (2p + i, 2q + j) of each element block: the
        # (i, j) entry of the element's node pair (p, q); nnz where discarded
        a, i, b, j = np.unravel_index(np.arange(36), (3, 2, 3, 2))
        scatter = position.reshape(-1).take(
            4 * np.take(inverse[:num_pairs].reshape(-1, 9), 3 * a + b, axis=1) + 2 * i + j)
        del inverse, position
        inside = scatter < nnz
        scatter = scatter[inside]
        columns = np.zeros(mesh.num_triangles + 1, dtype=np.int32)
        np.cumsum(inside.sum(axis=1), out=columns[1:])

        self._factor_maps(edges, condensed, renumber, keys, r)
        del keys, renumber, edges
        # column t of the map holds element t's block entries at their CSC
        # positions, so map @ tau_e sums each value over its elements in
        # ascending order; the blocks are computed last, once the other
        # temporaries are gone
        blocks = element_stiffness_blocks(mesh, mat).reshape(-1, 36)
        self._map = sp.csc_matrix((blocks[inside], scatter, columns),
                                  shape=(nnz, mesh.num_triangles))

    def _factor_maps(self, edges, condensed, renumber, keys, r):
        """The index arrays of ``CondensedCholesky``: the CSC positions of
        each condensed node's 2x2 block and 2x8 coupling, its corners in the
        kept numbering, and the gathers that form the band of the condensed
        operator."""
        m, nnz, centres = self._shape[0], keys.size, self.condensed
        # the four neighbours of each condensed node, and their DOFs in the
        # kept numbering (r where fixed)
        ends = edges[condensed[edges].any(axis=1)]
        centre_end = condensed[ends[:, 0]]
        owner = np.where(centre_end, ends[:, 0], ends[:, 1])
        other = np.where(centre_end, ends[:, 1], ends[:, 0])
        neighbours = other[np.lexsort((other, owner))].reshape(-1, 4)
        corners = renumber[2 * neighbours[:, :, None] + [0, 1]].reshape(-1, 8)
        corners[corners >= m] = r
        # CSC positions of each condensed 2x2 block and of its 2x8 coupling
        # B to the corners (row: the condensed DOF; nnz, one past the values,
        # where the corner is fixed)
        own = r + 2 * np.arange(centres.size)[:, None] + [0, 1]
        self._block_pos = np.searchsorted(keys, own[:, None, :] * m + own[:, :, None])
        kept = corners < r
        self._coupling_pos = np.where(
            kept[:, None, :], np.searchsorted(keys, corners[:, None, :] * m + own[:, :, None]),
            nnz)
        # W x gathers x at the corners; a fixed corner reads DOF 0, which its
        # zero column of W cancels. W^T sums each corner's (c, 8) entries
        # into its kept DOF.
        self._corners = np.where(kept, corners, 0)
        self._corner_sum = sp.csr_matrix(
            (np.ones(np.count_nonzero(kept)), (corners[kept], np.flatnonzero(kept))),
            shape=(r, corners.size))

        # LAPACK's lower band storage of the condensed operator, column-major
        # (kd + 1, r): entry (j, i), i <= j, sits at i * (kd + 1) + j - i. The
        # lower factorization runs in about two thirds of the upper one's
        # time on the girder, as its updates walk down columns.
        # ``_band_slots`` are the slots that receive a value, ascending; the
        # upper kept-kept values are gathered into a value per slot, then
        # each condensed node's 8x8 fill B^T D^-1 B is subtracted from its
        # upper kept-kept entries, a slot's fills in ascending node order.
        row, col = keys % m, keys // m
        upper = np.flatnonzero((col < r) & (row <= col))
        row, col = row[upper], col[upper]
        i, j = (np.broadcast_to(a, (centres.size, 8, 8))
                for a in (corners[:, :, None], corners[:, None, :]))
        fill = np.flatnonzero((i <= j) & (j < r))
        i, j = i.ravel()[fill], j.ravel()[fill]
        kd = int(max(np.max(col - row, initial=0), np.max(j - i, initial=0)))
        self._band_shape = (kd + 1, r)
        # the slot of every value, then of every fill, in ascending source
        # order; sorted by slot, then by source (a unique key, so the fast
        # unstable sort gives the stable order), a slot's value, where it has
        # one, comes first
        slot = np.concatenate([row * (kd + 1) + col - row, i * (kd + 1) + j - i])
        del row, col, i, j
        order = np.argsort(slot * slot.size + np.arange(slot.size))
        first = np.diff(slot[order], prepend=-1) != 0
        self._band_slots = slot[order[first]]
        # each source's slot among ``_band_slots`` and its rank within it
        at, rank = np.empty_like(order), np.empty_like(order)
        at[order] = np.cumsum(first) - 1
        start = np.flatnonzero(first)
        rank[order] = np.arange(order.size) - start[at[order]]
        del slot, order, first
        values = upper.size
        self._band_gather = (at[:values].copy(), upper)
        # round k holds the k-th fill of every slot that takes more than k, so
        # no slot repeats within a round; a slot takes at most four. A round
        # that reaches every slot is held in slot order, without its slots
        has_value = np.zeros(start.size, dtype=np.intp)
        has_value[at[:values]] = 1
        at, rank = at[values:], rank[values:] - has_value[at[values:]]
        rounds = []
        for k in range(int(rank.max(initial=-1)) + 1):
            mask = rank == k
            if np.count_nonzero(mask) == start.size:
                source = np.empty(start.size, dtype=np.intp)
                source[at[mask]] = fill[mask]
                rounds.append((None, source))
            else:
                rounds.append((at[mask], fill[mask]))
        self._fill_rounds = tuple(rounds)

    def band(self, data: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
        """LAPACK's lower band storage, (kd + 1, r) column-major, of the
        condensed operator A - B^T D^-1 B, from the assembled values
        ``data`` and each condensed node's coupling ``b`` = B and ``w`` =
        D^-1 B, (c, 2, 8): the upper kept-kept values, less each node's fill
        B^T W slot by slot in ascending node order, scattered into a zero
        band. The fill is freed before the band is touched, so the two are
        never resident together."""
        fill = (np.swapaxes(b, 1, 2) @ w).reshape(-1)
        values = np.zeros(self._band_slots.size)
        at, source = self._band_gather
        values[at] = data[source]
        for at, source in self._fill_rounds:
            if at is None:
                values -= fill.take(source)
            else:
                values[at] -= fill.take(source)
        del fill
        band = np.zeros(np.prod(self._band_shape))
        band[self._band_slots] = values
        return band.reshape(self._band_shape, order="F")


def assemble_state(pattern: StiffnessPattern, tau_e: np.ndarray) -> SparseSystem:
    """The tau-scaled stiffness plus the boundary springs, on the pattern's
    free DOFs: one sparse product plus the summed spring entries."""
    data = pattern._map @ np.asarray(tau_e, dtype=float)
    if pattern._spring_data is not None:
        data += pattern._spring_data
    return SparseSystem(sp.csc_matrix((data, pattern._indices, pattern._indptr),
                                      shape=pattern._shape), pattern.free_dofs, pattern)


class CondensedCholesky:
    """Banded Cholesky factor of an operator assembled on ``pattern``, with
    the pattern's condensed nodes eliminated exactly.

    With the kept DOFs first, K = [[A, B^T], [B, D]], D block diagonal with
    one 2x2 block per condensed node. The factor holds D^-1, W = D^-1 B and
    the Cholesky factor L L^T of the Schur complement S = A - B^T W, which
    is symmetric positive definite and banded (LAPACK ``dpbtrf``; George &
    Liu, Computer Solution of Large Sparse Positive Definite Systems, 1981).
    A and D are read from their upper triangles, so the factored operator
    is exactly symmetric. The band starts at zero, and the pattern's
    ``band`` fills only the slots that receive a value. Raises ``SolverFailure``
    on a pivot that is not positive or a factor that is not finite."""

    def __init__(self, pattern: StiffnessPattern, data: np.ndarray):
        d00, d01, d11 = (data[pattern._block_pos[:, i, j]] for i, j in ((0, 0), (0, 1), (1, 1)))
        det = d00 * d11 - d01 * d01
        if not np.all((d00 > 0.0) & (det > 0.0)):
            raise SolverFailure("elastic operator is not positive definite "
                                "(a condensed 2x2 block)")
        dinv = (np.stack([d11, -d01, -d01, d00], axis=1) / det[:, None]).reshape(-1, 2, 2)
        # B, zero where a corner is fixed, and W = D^-1 B, whose columns of
        # fixed corners are thus exactly zero
        pos = pattern._coupling_pos
        b = np.where(pos < data.size, data.take(pos, mode="clip"), 0.0)
        w = dinv @ b
        factor, info = lapack.dpbtrf(pattern.band(data, b, w), lower=1, overwrite_ab=1)
        # a non-finite entry of L reaches the diagonal of its row, so the
        # diagonal (the first row of the band) stands for the whole factor
        if info != 0 or not all(np.isfinite(a).all() for a in (factor[0], dinv, w)):
            raise SolverFailure("elastic operator is not positive definite "
                                f"(banded Cholesky info {info})")
        self._pattern, self._factor, self._dinv, self._w = pattern, factor, dinv, w
        # W's entries at fixed corners are structural zeros
        self.nnz = factor.size + dinv.size + 2 * pattern._corner_sum.nnz

    def solve(self, f: np.ndarray) -> np.ndarray:
        """K^-1 f for a vector of length n or an (n, k) block: condense the
        load, solve the banded system, back-substitute the condensed DOFs."""
        pattern, r = self._pattern, self._factor.shape[1]
        cols = f.reshape(f.shape[0], -1)
        k = cols.shape[1]
        fc = cols[r:].reshape(-1, 2, k)
        u = np.empty_like(cols)
        u[r:] = (self._dinv @ fc).reshape(-1, k)
        if r:   # LAPACK rejects an empty system
            x = np.subtract(cols[:r], pattern._corner_sum
                            @ (np.swapaxes(self._w, 1, 2) @ fc).reshape(-1, k), order="F")
            u[:r], _ = lapack.dpbtrs(self._factor, x, lower=1, overwrite_b=1)
            # np.take, not fancy indexing: it copies each gathered row whole
            u[r:] -= (self._w @ np.take(u[:r], pattern._corners, axis=0)).reshape(-1, k)
        return u.reshape(f.shape)


def _column_norms(a: np.ndarray) -> np.ndarray:
    """The 2-norm of each column of ``a``, (n, k)."""
    return np.sqrt(np.einsum("ij,ij->j", a, a))


class FactorizedSystem:
    """Factorization of the constrained operator, reusable across
    right-hand sides (state plus adjoint solves): a ``CondensedCholesky``
    on the operator's ``StiffnessPattern``."""

    def __init__(self, system: SparseSystem):
        self.system = system
        self._lu = CondensedCholesky(system.pattern, system.matrix.data)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The displacement of the load ``rhs``, zero on the fixed DOFs; its
        rows on the fixed DOFs are reactions and are not read. An (n, k)
        ``rhs`` is k loads, solved in one pass and each checked on its own;
        the result's columns are contiguous."""
        free = self.system.free_dofs
        f = np.take(rhs, free, axis=0).reshape(free.size, -1)
        x = self._lu.solve(f)
        if not np.all(np.isfinite(x)):
            raise SolverFailure("factorized solve produced non-finite values")
        scale = np.maximum(_column_norms(f), 1e-30)
        rel = _column_norms(self.system.matrix @ x - f) / scale
        for j in np.flatnonzero(rel > 1e-9):
            x[:, j], rel_j = self._cg_fallback(f[:, j], x[:, j], scale[j])
            if not rel_j <= 1e-9:
                raise SolverFailure(f"relative residual {rel_j:.3e} exceeds 1e-9")
        u = np.zeros((rhs.shape[0], x.shape[1]), order="F")
        for j, column in enumerate(x.T):
            u[:, j][free] = column
        return u.reshape(rhs.shape)

    def _cg_fallback(self, f, x, scale):
        """Refine the column ``x`` of the load ``f`` on the factors: two
        steps x += K^-1 r, each residual r = f - K x formed in extended
        precision (Higham, Accuracy and Stability of Numerical Algorithms,
        ch. 12). Returns x and its relative residual. The method keeps the
        name under which the benchmark traces it."""
        matrix = self.system.matrix.astype(np.longdouble)
        for _ in range(2):
            x = x + self._lu.solve((f - matrix @ x).astype(float))
        return x, float(np.linalg.norm(f - matrix @ x) / scale)


# ---------------------------------------------------------------------------
# derived element fields

def element_strains(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Engineering strains (eps_xx, eps_yy, gamma_xy) per element."""
    return (mesh.strain_operator @ u).reshape(-1, 3)


def element_stresses(eps: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """Solid-material stresses (s_xx, s_yy, s_xy, s_zz) of element strains."""
    s = eps @ plane_strain_matrix(mat).T
    szz = mat.poisson * (s[:, 0] + s[:, 1])
    return np.column_stack([s[:, 0], s[:, 1], s[:, 2], szz])


def mutual_energy_density(mat: MaterialParams, eps_u: np.ndarray,
                          eps_v: np.ndarray) -> np.ndarray:
    """Solid-material energy density eps_u : C : eps_v per element."""
    return np.einsum("ti,ti->t", eps_u @ plane_strain_matrix(mat), eps_v)


@dataclass(frozen=True)
class StressAggregate:
    """S = (integral (vm/f_y)^p * tau)^(1/p) of one state with the element
    fields its derivatives read, the peak ratio factored out so that no power
    of a ratio over- or underflows: S = peak * total^(1/p)."""

    exponent: float       # p
    yield_stress: float   # f_y
    deviator: np.ndarray  # (d_xx, d_yy, s_xy, d_zz) per element
    vm: np.ndarray        # von Mises stress per element
    rel: np.ndarray       # vm / (f_y * peak), in [0, 1]
    peak: float           # the largest vm / f_y
    total: float          # integral of rel^p * tau
    value: float          # S


def stress_aggregate(mesh: Mesh, mat: MaterialParams, eps: np.ndarray,
                     tau_e: np.ndarray, p: float,
                     yield_stress: float) -> StressAggregate:
    """The aggregated stress of the state with element strains ``eps``."""
    if p < 1.0:
        raise InvalidArgument("aggregation exponent must be at least 1")
    if yield_stress <= 0.0:
        raise InvalidArgument("yield stress must be positive")
    s = element_stresses(eps, mat)
    mean = (s[:, 0] + s[:, 1] + s[:, 3]) / 3.0
    dev = np.column_stack([s[:, 0] - mean, s[:, 1] - mean, s[:, 2], s[:, 3] - mean])
    vm = np.sqrt(1.5 * (dev[:, 0] ** 2 + dev[:, 1] ** 2 + dev[:, 3] ** 2 + 2.0 * dev[:, 2] ** 2))
    ratio = vm / yield_stress
    peak = float(ratio.max(initial=0.0))
    rel = ratio / peak if peak > 0.0 else np.zeros_like(ratio)
    total = float(np.sum(rel ** p * tau_e * mesh.element_areas))
    return StressAggregate(exponent=p, yield_stress=yield_stress, deviator=dev, vm=vm,
                           rel=rel, peak=peak, total=total, value=peak * total ** (1.0 / p))


def deviator_adjoint_load(mesh: Mesh, mat: MaterialParams, stress: StressAggregate,
                          tau_e: np.ndarray) -> np.ndarray:
    """Nodal load of dS/du for the aggregate ``stress`` computed with element
    stiffness ``tau_e``. Acting on a test field du it evaluates, peak-factored,
    total^(1/p - 1) * integral rel^(p-1) * 3 tau / (2 f_y vm) * s(u):s(du);
    elements with vanishing stress contribute their zero limit.
    """
    if stress.total <= 0.0:
        return np.zeros(2 * mesh.num_nodes)
    p, vm, dev = stress.exponent, stress.vm, stress.deviator
    coef = np.zeros(mesh.num_triangles)
    pos = vm > 0.0
    coef[pos] = (stress.total ** (1.0 / p - 1.0) * stress.rel[pos] ** (p - 1.0)
                 * 1.5 * tau_e[pos] / (stress.yield_stress * vm[pos]))

    # s(u):sigma(du) = c . (sxx(du), syy(du), sxy(du)) with the plane-strain
    # szz folded into the in-plane coefficients
    nu = mat.poisson
    c = np.column_stack([dev[:, 0] + nu * dev[:, 3],
                         dev[:, 1] + nu * dev[:, 3],
                         2.0 * dev[:, 2]])
    weighted = (coef * mesh.element_areas)[:, None] * (c @ plane_strain_matrix(mat))
    return mesh.strain_operator_transpose @ weighted.ravel()

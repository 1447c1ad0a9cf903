"""Plane-strain linear elasticity on the fictitious-material design domain.

State and adjoint problems share one assembled operator per support set; void
regions keep a small relative stiffness so the solve stays well posed over
the whole domain. The operator is assembled, factorized and checked on the
free DOFs only: states are zero on the fixed DOFs, whose rows carry the
reactions and are never solved for.

What depends only on the sparsity pattern is done once per support set by
``StiffnessPattern``: it numbers the free DOFs in a fill-reducing elimination
order, so each factorization keeps that order, and it maps the element
stiffness straight to the values of the CSC matrix. ``FactorizedSystem.solve``
takes one load or several as columns, and checks each column on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    """Solid (tau = 1) 6x6 element stiffness matrices, (T, 6, 6)."""
    b = strain_displacement(mesh)
    dm = plane_strain_matrix(mat)
    return np.einsum("tki,kl,tlj->tij", b, dm, b) * mesh.element_areas[:, None, None]


def _element_dofs(mesh: Mesh) -> np.ndarray:
    tri = mesh.triangles
    dofs = np.empty((mesh.num_triangles, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * tri
    dofs[:, 1::2] = 2 * tri + 1
    return dofs


# The operator is symmetric positive definite: a symmetric fill-reducing
# ordering of A + A^T keeps the factors well below COLAMD's fill.
_ORDERING = "MMD_AT_PLUS_A"


def _csc_structure(keys: np.ndarray, m: int):
    """CSC ``indices`` and ``indptr`` of the sorted column-major keys
    ``col * m + row`` of an m x m pattern."""
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // m, minlength=m), out=indptr[1:])
    return (keys % m).astype(np.int32), indptr


class StiffnessPattern:
    """The design-independent part of the constrained stiffness operator.

    Built once per (mesh, material, springs, supports): the free DOFs in
    elimination order, the CSC sparsity pattern over them, one sparse map
    from the element stiffness tau_e to the CSC values, and the summed
    spring entries, so ``assemble`` is one sparse product plus the springs.

    The elimination order is the MMD ordering of K + K^T that SuperLU finds
    for the solid operator. It depends only on the pattern, so it is found
    once here and every ``FactorizedSystem`` factorizes in the given order.
    Entries that touch a fixed DOF are dropped.
    """

    def __init__(self, mesh: Mesh, mat: MaterialParams, springs, bcs):
        n = 2 * mesh.num_nodes
        fixed = _fixed_dofs(mesh, bcs)
        if fixed.size == 0 and not springs:
            raise SingularSystemError("no Dirichlet, roller, or spring constraint present")
        dofs = _element_dofs(mesh)
        springs = spring_matrix(mesh, springs).tocoo()

        free = np.ones(n, dtype=bool)
        free[fixed] = False
        free_dofs = np.flatnonzero(free)
        m = free_dofs.size
        renumber = np.full(n, m, dtype=np.int64)
        renumber[free_dofs] = np.arange(m)
        rows = renumber[np.concatenate([np.repeat(dofs, 6, axis=1).ravel(), springs.row])]
        cols = renumber[np.concatenate([np.tile(dofs, (1, 6)).ravel(), springs.col])]
        # column-major keys sort into CSC order with sorted row indices; the
        # discarded bin m * m sorts after all of them
        keys = np.where((rows < m) & (cols < m), cols * m + rows, m * m)
        del rows, cols
        keys, scatter = np.unique(keys, return_inverse=True)
        nnz = int(np.searchsorted(keys, m * m))
        keys = keys[:nnz]
        num_blocks = 36 * mesh.num_triangles
        # the blocks are computed only now, which keeps them out of the
        # unique's peak memory
        blocks = element_stiffness_blocks(mesh, mat).reshape(-1, 36)
        solid = np.bincount(scatter[:num_blocks], weights=blocks.ravel(),
                            minlength=nnz)[:nnz]
        spring_data = None
        if springs.nnz:
            spring_data = np.bincount(scatter[num_blocks:], weights=springs.data,
                                      minlength=nnz)[:nnz]
            solid += spring_data

        # order once, on the solid operator in ascending free-DOF numbering:
        # SuperLU eliminates its column argsort(perm_c)[i] i-th, so DOF j of
        # this numbering becomes DOF perm_c[j] of the ordered one
        solid = sp.csc_matrix((solid, *_csc_structure(keys, m)), shape=(m, m))
        perm_c = spla.splu(solid, permc_spec=_ORDERING).perm_c.astype(np.int64)
        del solid
        self.free_dofs = free_dofs[np.argsort(perm_c)]

        # renumber the pattern into that order; key k lands at CSC position
        # rank[k] of the ordered operator
        ordered = perm_c[keys // m] * m + perm_c[keys % m]
        order = np.argsort(ordered)
        self._indices, self._indptr = _csc_structure(ordered[order], m)
        rank = np.empty(nnz, dtype=np.int32)
        rank[order] = np.arange(nnz, dtype=np.int32)
        self._spring_data = None if spring_data is None else spring_data[order]

        # column t of the map holds element t's block entries at their CSC
        # positions, so map @ tau_e sums each value over its elements in
        # ascending order
        scatter = scatter[:num_blocks].reshape(-1, 36)
        kept = scatter < nnz
        columns = np.zeros(mesh.num_triangles + 1, dtype=np.int32)
        np.cumsum(kept.sum(axis=1), out=columns[1:])
        self._map = sp.csc_matrix((blocks[kept], rank[scatter[kept]], columns),
                                  shape=(nnz, mesh.num_triangles))
        self._shape = (m, m)

    def assemble(self, tau_e: np.ndarray) -> SparseSystem:
        data = self._map @ np.asarray(tau_e, dtype=float)
        if self._spring_data is not None:
            data += self._spring_data
        return SparseSystem(sp.csc_matrix((data, self._indices, self._indptr),
                                          shape=self._shape), self.free_dofs)


def assemble_state(mesh: Mesh, tau_e: np.ndarray, mat: MaterialParams,
                   springs, bcs,
                   pattern: StiffnessPattern | None = None) -> SparseSystem:
    """Assemble the tau-scaled stiffness plus the boundary springs.

    ``pattern`` must have been built from the same mesh, material, springs
    and supports; without one, a pattern is built for this call.
    """
    if pattern is None:
        pattern = StiffnessPattern(mesh, mat, springs, bcs)
    return pattern.assemble(tau_e)


class FactorizedSystem:
    """LU factorization of the constrained operator, reusable across
    right-hand sides (state plus adjoint solves). The operator comes from a
    ``StiffnessPattern``, whose DOFs are already in elimination order."""

    def __init__(self, system: SparseSystem):
        self.system = system
        self._lu = spla.splu(system.matrix, permc_spec="NATURAL")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The displacement of the load ``rhs``, zero on the fixed DOFs; its
        rows on the fixed DOFs are reactions and are not read. An (n, k)
        ``rhs`` is k loads, solved in one pass and each checked on its own;
        the result's columns are contiguous."""
        free = self.system.free_dofs
        f = rhs[free]
        x = self._lu.solve(f)
        if not np.all(np.isfinite(x)):
            raise SolverFailure("factorized solve produced non-finite values")
        f_cols, x_cols = f.reshape(f.shape[0], -1), x.reshape(x.shape[0], -1)
        scale = np.maximum(np.linalg.norm(f_cols, axis=0), 1e-30)
        rel = np.linalg.norm(self.system.matrix @ x_cols - f_cols, axis=0) / scale
        for j in np.flatnonzero(rel > 1e-9):
            x_cols[:, j], rel_j = self._cg_fallback(f_cols[:, j], x_cols[:, j], scale[j])
            if not rel_j <= 1e-9:
                raise SolverFailure(f"relative residual {rel_j:.3e} exceeds 1e-9")
        u = np.zeros(rhs.shape, order="F")
        u[free] = x
        return u

    def _cg_fallback(self, f, x, scale):
        """Refine the column ``x`` of the load ``f`` on the LU factors: two
        steps x += LU^-1 r, each residual r = f - K x formed in extended
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
    grads = mesh.grads
    ux = u[0::2][mesh.triangles]
    uy = u[1::2][mesh.triangles]
    exx = np.einsum("ta,ta->t", grads[:, :, 0], ux)
    eyy = np.einsum("ta,ta->t", grads[:, :, 1], uy)
    gxy = np.einsum("ta,ta->t", grads[:, :, 1], ux) + np.einsum("ta,ta->t", grads[:, :, 0], uy)
    return np.column_stack([exx, eyy, gxy])


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
    ge = np.einsum("ti,tik->tk", weighted, strain_displacement(mesh))
    return np.bincount(_element_dofs(mesh).ravel(), weights=ge.ravel(),
                       minlength=2 * mesh.num_nodes)

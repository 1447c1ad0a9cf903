"""Plane-strain linear elasticity on the fictitious-material design domain.

State and adjoint problems share one assembled operator per support set; void
regions keep a small relative stiffness so the solve stays well posed over
the whole domain. The operator is assembled, factorized and checked on the
free DOFs only: states are zero on the fixed DOFs, whose rows carry the
reactions and are never solved for.
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
    if edges.shape[0] == 0:
        raise InvalidArgument(f"no boundary edges tagged '{tag}'")
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
    n = 2 * mesh.num_nodes
    if not springs:
        return sp.csr_matrix((n, n))
    rows, cols, vals = [], [], []
    for spec in springs:
        edges = mesh.edges_with_tag(spec.tag)
        if edges.shape[0] == 0:
            raise InvalidArgument(f"no boundary edges tagged '{spec.tag}'")
        r = np.asarray(spec.direction, dtype=float)
        rr = np.outer(r, r)
        delta = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
        lengths = np.hypot(delta[:, 0], delta[:, 1])
        # 2-node line element consistent mass: l/6 * [[2,1],[1,2]]
        for a in range(2):
            for b in range(2):
                w = spec.stiffness * lengths / 6.0 * (2.0 if a == b else 1.0)
                for i in range(2):
                    for j in range(2):
                        rows.append(2 * edges[:, a] + i)
                        cols.append(2 * edges[:, b] + j)
                        vals.append(w * rr[i, j])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


_COMPONENTS = {"both": (0, 1), "x": (0,), "y": (1,)}


def _fixed_dofs(mesh: Mesh, bcs) -> np.ndarray:
    dofs = [np.zeros(0, dtype=np.int64)]
    for bc in bcs:
        if isinstance(bc, PointConstraint):
            dofs.append([2 * bc.node + bc.component])
            continue
        edges = mesh.edges_with_tag(bc.tag)
        if edges.shape[0] == 0:
            raise InvalidArgument(f"no boundary edges tagged '{bc.tag}'")
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


class StiffnessPattern:
    """The design-independent part of the constrained stiffness operator.

    Built once per (mesh, material, springs, supports): the solid element
    blocks, the free DOFs, the CSC sparsity pattern over the free DOFs with
    the map scattering element entries into it, and the summed spring
    entries. Every entry that touches a fixed DOF is scattered into one
    trailing bin that ``assemble`` drops, so ``assemble`` only scales the
    blocks by the element stiffness and sums them.
    """

    def __init__(self, mesh: Mesh, mat: MaterialParams, springs, bcs):
        n = 2 * mesh.num_nodes
        fixed = _fixed_dofs(mesh, bcs)
        if fixed.size == 0 and not springs:
            raise SingularSystemError("no Dirichlet, roller, or spring constraint present")
        self.blocks = element_stiffness_blocks(mesh, mat).reshape(mesh.num_triangles, 36)
        dofs = _element_dofs(mesh)
        springs = spring_matrix(mesh, springs).tocoo()

        free = np.ones(n, dtype=bool)
        free[fixed] = False
        self.free_dofs = np.flatnonzero(free)
        m = self.free_dofs.size
        renumber = np.full(n, m, dtype=np.int64)
        renumber[self.free_dofs] = np.arange(m)
        rows = renumber[np.concatenate([np.repeat(dofs, 6, axis=1).ravel(), springs.row])]
        cols = renumber[np.concatenate([np.tile(dofs, (1, 6)).ravel(), springs.col])]
        # column-major keys sort into CSC order with sorted row indices; the
        # discarded bin m * m sorts after all of them
        keys = np.where((rows < m) & (cols < m), cols * m + rows, m * m)
        keys, scatter = np.unique(keys, return_inverse=True)
        keys = keys[keys < m * m]
        num_blocks = self.blocks.size
        self._scatter = scatter[:num_blocks]
        self._spring_data = (np.bincount(scatter[num_blocks:], weights=springs.data,
                                         minlength=keys.size)[:keys.size]
                             if springs.nnz else None)
        self._shape = (m, m)
        self._indices = (keys % m).astype(np.int32)
        self._indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // m, minlength=m), out=self._indptr[1:])

    def assemble(self, tau_e: np.ndarray) -> SparseSystem:
        weighted = self.blocks * np.asarray(tau_e, dtype=float)[:, None]
        nnz = self._indices.size
        data = np.bincount(self._scatter, weights=weighted.ravel(), minlength=nnz)[:nnz]
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


# The operator is symmetric positive definite: a symmetric fill-reducing
# ordering of A + A^T keeps the factors well below COLAMD's fill.
_ORDERING = "MMD_AT_PLUS_A"


class FactorizedSystem:
    """LU factorization of the constrained operator, reusable across
    right-hand sides (state plus adjoint solves)."""

    def __init__(self, system: SparseSystem):
        self.system = system
        self._lu = spla.splu(system.matrix, permc_spec=_ORDERING)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The displacement of the load ``rhs``, zero on the fixed DOFs; its
        rows on the fixed DOFs are reactions and are not read."""
        free = self.system.free_dofs
        f = rhs[free]
        x = self._lu.solve(f)
        if not np.all(np.isfinite(x)):
            raise SolverFailure("factorized solve produced non-finite values")
        scale = max(np.linalg.norm(f), 1e-30)
        rel = np.linalg.norm(self.system.matrix @ x - f) / scale
        if rel > 1e-9:
            x, rel = self._cg_fallback(f, x, scale)
            if rel > 1e-9:
                raise SolverFailure(f"relative residual {rel:.3e} exceeds 1e-9")
        u = np.zeros(rhs.shape[0])
        u[free] = x
        return u

    def _cg_fallback(self, f, x0, scale):
        matrix = self.system.matrix
        x, info = spla.cg(matrix, f, x0=x0, rtol=1e-12, maxiter=5000)
        return x, np.linalg.norm(matrix @ x - f) / scale


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

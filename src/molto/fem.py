"""Shared linear-triangle (P1) finite element utilities.

Per-mesh geometric data (shape function gradients, areas) is computed once
and cached on the mesh object; everything downstream is vectorized over
elements.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

_CACHE_ATTR = "_p1_cache"


class P1Data:
    """Gradients of the three barycentric shape functions per triangle."""

    def __init__(self, mesh: Mesh):
        p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
        x, y = p[..., 0], p[..., 1]
        area2 = 2.0 * mesh.element_areas
        # grad N_a = (y_b - y_c, x_c - x_b) / 2A, cyclic in (a, b, c)
        gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        self.grads = np.stack([gx, gy], axis=2) / area2[:, None, None]  # (T, 3, 2)
        self.areas = mesh.element_areas
        self.triangles = mesh.triangles


def p1_data(mesh: Mesh) -> P1Data:
    data = getattr(mesh, _CACHE_ATTR, None)
    if data is None:
        data = P1Data(mesh)
        object.__setattr__(mesh, _CACHE_ATTR, data)
    return data


def _assemble_scalar(mesh: Mesh, element_matrices: np.ndarray) -> sp.csr_matrix:
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    mat = sp.coo_matrix((element_matrices.ravel(), (rows, cols)),
                        shape=(mesh.num_nodes, mesh.num_nodes))
    return mat.tocsr()


def scalar_mass(mesh: Mesh) -> sp.csr_matrix:
    """Consistent mass matrix: A/12 * [[2,1,1],[1,2,1],[1,1,2]] per element."""
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    elems = mesh.element_areas[:, None, None] * base[None, :, :]
    return _assemble_scalar(mesh, elems)


def lumped_node_areas(mesh: Mesh) -> np.ndarray:
    areas = np.zeros(mesh.num_nodes)
    np.add.at(areas, mesh.triangles.ravel(),
              np.repeat(mesh.element_areas / 3.0, 3))
    return areas


def scalar_stiffness(mesh: Mesh, coeff: np.ndarray) -> sp.csr_matrix:
    """Anisotropic stiffness: integral of grad(Ni) . coeff . grad(Nj).

    ``coeff`` is a constant 2x2 tensor (pass c**2 * I for an isotropic
    operator with speed c).
    """
    d = p1_data(mesh)
    cg = np.einsum("ij,taj->tai", np.asarray(coeff, dtype=float), d.grads)
    elems = np.einsum("tai,tbi->tab", d.grads, cg) * d.areas[:, None, None]
    return _assemble_scalar(mesh, elems)


def element_means(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    return nodal[mesh.triangles].mean(axis=1)


def element_to_nodes(mesh: Mesh, field_e: np.ndarray) -> np.ndarray:
    """Area-weighted projection of an element field onto nodes."""
    num = np.zeros(mesh.num_nodes)
    w = mesh.element_areas / 3.0
    np.add.at(num, mesh.triangles.ravel(), np.repeat(field_e * w, 3))
    return num / lumped_node_areas(mesh)


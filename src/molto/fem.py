"""Shared linear-triangle (P1) finite element utilities.

The per-mesh geometry (shape function gradients, areas, lumped node areas)
and the sparse operators built from it live on the mesh; everything here is
vectorized over elements.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh


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


def scalar_stiffness(mesh: Mesh, coeff: np.ndarray) -> sp.csr_matrix:
    """Anisotropic stiffness: integral of grad(Ni) . coeff . grad(Nj).

    ``coeff`` is a constant 2x2 tensor (pass c**2 * I for an isotropic
    operator with speed c).
    """
    grads = mesh.grads
    cg = np.einsum("ij,taj->tai", np.asarray(coeff, dtype=float), grads)
    elems = np.einsum("tai,tbi->tab", grads, cg) * mesh.element_areas[:, None, None]
    return _assemble_scalar(mesh, elems)


def element_means(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    return mesh.element_mean_operator @ nodal


def element_to_nodes(mesh: Mesh, field_e: np.ndarray) -> np.ndarray:
    """Area-weighted projection of an element field onto nodes."""
    return mesh.nodal_projection @ field_e


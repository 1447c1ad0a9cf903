"""Fixed structured triangle meshes for rectangular and L-shaped design domains,
both cut from one grid triangulation.

Meshes are immutable after construction and safe to share between concurrent
candidate runs; the P1 geometry (shape function gradients, lumped node areas)
and the sparse operators built from it (element strains, element means,
nodal projection) are computed on first use and read-only. Boundary edges
carry a single tag each; tagging is done by axis-aligned regions with a
snapping tolerance of a quarter edge length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgument, TagMatchError

FREE_TAG = "free"


@dataclass(frozen=True)
class Mesh:
    """Triangulated 2D domain with tagged boundary edges.

    nodes          : (N, 2) coordinates in mm
    triangles      : (T, 3) node indices, counterclockwise
    boundary_edges : (E, 2) node index pairs, each edge owned by one triangle
    edge_tags      : (E,) tag per boundary edge ("free" until tagged)
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    edge_tags: np.ndarray
    spacing: float
    element_areas: np.ndarray = field(init=False)

    def __post_init__(self):
        areas = signed_areas(self.nodes, self.triangles)
        if np.any(areas <= 0.0):
            raise InvalidArgument("mesh contains non-positive triangle areas")
        object.__setattr__(self, "element_areas", areas)
        for arr in (self.nodes, self.triangles, self.boundary_edges,
                    self.edge_tags, self.element_areas):
            arr.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def total_area(self) -> float:
        return float(self.element_areas.sum())

    @cached_property
    def grads(self) -> np.ndarray:
        """Gradients of the three barycentric shape functions, (T, 3, 2)."""
        p = self.nodes[self.triangles]
        x, y = p[..., 0], p[..., 1]
        area2 = 2.0 * self.element_areas
        # grad N_a = (y_b - y_c, x_c - x_b) / 2A, cyclic in (a, b, c)
        gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        grads = np.stack([gx, gy], axis=2) / area2[:, None, None]
        grads.setflags(write=False)
        return grads

    @cached_property
    def node_areas(self) -> np.ndarray:
        """Lumped (row-sum) mass per node, (N,)."""
        areas = np.zeros(self.num_nodes)
        np.add.at(areas, self.triangles.ravel(),
                  np.repeat(self.element_areas / 3.0, 3))
        areas.setflags(write=False)
        return areas

    @cached_property
    def strain_operator(self) -> sp.csr_matrix:
        """Engineering strains (eps_xx, eps_yy, gamma_xy) of every element
        from the nodal displacements (x, y interleaved), (3T, 2N): row
        3t + i is strain i of element t."""
        g, tri = self.grads, 2 * self.triangles.astype(np.int64)
        gx, gy = g[:, :, 0], g[:, :, 1]
        # eps_xx = gx . u_x, eps_yy = gy . u_y, gamma_xy = gy . u_x + gx . u_y
        return _frozen(sp.csr_matrix(
            (np.hstack([gx, gy, gy, gx]).ravel(),
             np.hstack([tri, tri + 1, tri, tri + 1]).ravel(),
             np.append(0, np.cumsum(np.tile([3, 3, 6], self.num_triangles)))),
            shape=(3 * self.num_triangles, 2 * self.num_nodes)))

    @cached_property
    def strain_operator_transpose(self) -> sp.csc_matrix:
        """The transpose of ``strain_operator``, (2N, 3T), a view of its
        arrays: it takes a coefficient per element strain to nodal loads."""
        return self.strain_operator.T

    @cached_property
    def element_mean_operator(self) -> sp.csr_matrix:
        """The mean of a nodal field over each element's three nodes, (T, N)."""
        t = self.num_triangles
        return _frozen(sp.csr_matrix(
            (np.full(3 * t, 1.0 / 3.0), self.triangles.ravel(), np.arange(0, 3 * t + 1, 3)),
            shape=(t, self.num_nodes)))

    @cached_property
    def nodal_projection(self) -> sp.csr_matrix:
        """Area-weighted projection of an element field onto the nodes, (N, T):
        each node averages its elements, weighted by a third of their area."""
        tri = self.triangles.ravel()
        weights = np.repeat(self.element_areas / 3.0, 3) / self.node_areas[tri]
        elements = np.repeat(np.arange(self.num_triangles), 3)
        return _frozen(sp.csr_matrix((weights, (tri, elements)),
                                     shape=(self.num_nodes, self.num_triangles)))

    def edges_with_tag(self, tag: str) -> np.ndarray:
        """Boundary edges carrying ``tag``; at least one must."""
        edges = self.boundary_edges[self.edge_tags == tag]
        if edges.shape[0] == 0:
            raise InvalidArgument(f"no boundary edges tagged '{tag}'")
        return edges

    def nodes_with_tag(self, tag: str) -> np.ndarray:
        """Unique node indices touched by edges carrying ``tag``."""
        return np.unique(self.edges_with_tag(tag))

    def nearest_node(self, x: float, y: float) -> int:
        d2 = (self.nodes[:, 0] - x) ** 2 + (self.nodes[:, 1] - y) ** 2
        return int(np.argmin(d2))


def _frozen(op: sp.csr_matrix) -> sp.csr_matrix:
    """``op`` with its arrays read-only, as befits an operator shared by
    concurrent candidates."""
    for a in (op.data, op.indices, op.indptr):
        a.setflags(write=False)
    return op


def signed_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = nodes[triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def _boundary_edges(triangles: np.ndarray) -> np.ndarray:
    """Edges that belong to exactly one triangle, in ascending node order."""
    edges = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    edges = np.sort(edges, axis=1).astype(np.int64)
    # one integer key per edge sorts like the (a, b) rows themselves
    num_nodes = int(edges.max(initial=-1)) + 1
    keys, counts = np.unique(edges[:, 0] * num_nodes + edges[:, 1], return_counts=True)
    keys = keys[counts == 1]
    return np.column_stack([keys // num_nodes, keys % num_nodes])


def _finish(nodes, triangles, spacing) -> Mesh:
    boundary = _boundary_edges(triangles)
    tags = np.full(boundary.shape[0], FREE_TAG, dtype=object)
    return Mesh(np.asarray(nodes, dtype=float), np.asarray(triangles, dtype=np.int32),
                boundary.astype(np.int32), tags, float(spacing))


def _grid_mesh(xs, ys, ci, cj, crossed, spacing) -> Mesh:
    """Triangulation of the cells (ci, cj) of the node grid xs x ys.

    Each cell is split into two triangles, or with ``crossed`` into four
    around an added centre node; grid nodes that no cell uses are dropped.
    """
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    def nid(i, j):
        return j * xs.size + i

    n00, n10 = nid(ci, cj), nid(ci + 1, cj)
    n11, n01 = nid(ci + 1, cj + 1), nid(ci, cj + 1)

    if crossed:
        centers = np.column_stack([(xs[ci] + xs[ci + 1]) / 2.0,
                                   (ys[cj] + ys[cj + 1]) / 2.0])
        c = np.arange(centers.shape[0]) + nodes.shape[0]
        nodes = np.vstack([nodes, centers])
        triangles = np.vstack([
            np.column_stack([n00, n10, c]),
            np.column_stack([n10, n11, c]),
            np.column_stack([n11, n01, c]),
            np.column_stack([n01, n00, c]),
        ])
    else:
        triangles = np.vstack([
            np.column_stack([n00, n10, n11]),
            np.column_stack([n00, n11, n01]),
        ])

    used = np.zeros(nodes.shape[0], dtype=bool)
    used[triangles] = True
    remap = np.cumsum(used) - 1
    return _finish(nodes[used], remap[triangles], spacing)


def _cells(nx: int, ny: int):
    """Column and row index of every cell of an nx x ny grid, row by row."""
    ci, cj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    return ci.ravel(), cj.ravel()


def build_rect_mesh(width: float, height: float, nx: int, ny: int,
                    crossed: bool = False) -> Mesh:
    """Structured triangulation of [0, width] x [0, height].

    Default split is two triangles per cell; ``crossed`` adds a centre node
    per cell (four triangles), which keeps the mesh mirror-symmetric.
    """
    if width <= 0.0 or height <= 0.0:
        raise InvalidArgument("width and height must be positive")
    if nx < 1 or ny < 1:
        raise InvalidArgument("nx and ny must be at least 1")
    ci, cj = _cells(nx, ny)
    return _grid_mesh(np.linspace(0.0, width, nx + 1), np.linspace(0.0, height, ny + 1),
                      ci, cj, crossed, min(width / nx, height / ny))


def _cell_count(length: float, h: float, name: str) -> int:
    n = int(round(length / h))
    if n < 1 or abs(n * h - length) > 1e-9 * max(1.0, length):
        raise InvalidArgument(f"spacing {h} does not divide {name}={length}")
    return n


def build_lshape_mesh(outer: float, cut: float, h: float,
                      crossed: bool = True) -> Mesh:
    """L-shaped domain: [0, outer]^2 minus the top-right cut x cut square.

    The two re-entrant edges facing the removed square are pre-tagged
    ``void_a`` (vertical) and ``void_b`` (horizontal).
    """
    if not 0.0 < cut < outer:
        raise InvalidArgument("cut must satisfy 0 < cut < outer")
    n = _cell_count(outer, h, "outer")
    ncut = _cell_count(cut, h, "cut")
    xs = np.linspace(0.0, outer, n + 1)
    ci, cj = _cells(n, n)
    kept = ~((ci >= n - ncut) & (cj >= n - ncut))
    mesh = _grid_mesh(xs, xs, ci[kept], cj[kept], crossed, h)

    corner = outer - cut
    mesh = tag_boundary(mesh, (corner, corner), (corner, outer), "void_a")
    mesh = tag_boundary(mesh, (corner, corner), (outer, corner), "void_b")
    return mesh


def tag_boundary(mesh: Mesh, start, end, tag: str) -> Mesh:
    """Tag every boundary edge whose midpoint lies on the axis-aligned
    segment from ``start`` to ``end`` (snapping tolerance 0.25 * spacing).

    Returns a new Mesh sharing geometry arrays; last write wins on re-tagged
    edges. Raises TagMatchError when no edge matches.
    """
    (x0, y0), (x1, y1) = start, end
    tol = 0.25 * mesh.spacing
    mids = 0.5 * (mesh.nodes[mesh.boundary_edges[:, 0]]
                  + mesh.nodes[mesh.boundary_edges[:, 1]])
    if abs(x1 - x0) <= tol and abs(y1 - y0) <= tol:
        raise InvalidArgument("tag region has zero extent")
    if abs(x1 - x0) <= tol:  # vertical segment
        lo, hi = min(y0, y1), max(y0, y1)
        match = (np.abs(mids[:, 0] - x0) <= tol) & (mids[:, 1] >= lo - tol) & (mids[:, 1] <= hi + tol)
    elif abs(y1 - y0) <= tol:  # horizontal segment
        lo, hi = min(x0, x1), max(x0, x1)
        match = (np.abs(mids[:, 1] - y0) <= tol) & (mids[:, 0] >= lo - tol) & (mids[:, 0] <= hi + tol)
    else:
        raise InvalidArgument("tag region must be axis-aligned")
    if not match.any():
        raise TagMatchError(f"region {start}-{end} matched no boundary edges for tag '{tag}'")
    tags = mesh.edge_tags.copy()
    tags[match] = tag
    return Mesh(mesh.nodes, mesh.triangles, mesh.boundary_edges, tags, mesh.spacing)


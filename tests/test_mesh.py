import numpy as np
import pytest

from molto.errors import InvalidArgument, TagMatchError
from molto.mesh import (FREE_TAG, build_lshape_mesh, build_rect_mesh,
                        signed_areas, tag_boundary)


def test_unit_square_default_split():
    mesh = build_rect_mesh(1.0, 1.0, 1, 1)
    assert mesh.num_triangles == 2
    assert mesh.total_area == pytest.approx(1.0, abs=1e-15)


def test_rect_area_partition():
    mesh = build_rect_mesh(1.0, 0.5, 60, 30)
    assert abs(mesh.element_areas.sum() - 0.5) < 1e-12


def test_rect_boundary_edges_free_and_counted():
    mesh = build_rect_mesh(2.0, 1.0, 4, 2)
    assert mesh.boundary_edges.shape[0] == 2 * (4 + 2)
    assert all(t == FREE_TAG for t in mesh.edge_tags)


def test_crossed_mesh_counts():
    mesh = build_rect_mesh(1.0, 0.5, 4, 2, crossed=True)
    assert mesh.num_triangles == 4 * 4 * 2
    assert mesh.num_nodes == 5 * 3 + 8
    assert abs(mesh.total_area - 0.5) < 1e-12


def test_rect_invalid_dimensions():
    with pytest.raises(InvalidArgument):
        build_rect_mesh(0.0, 1.0, 2, 2)
    with pytest.raises(InvalidArgument):
        build_rect_mesh(1.0, 1.0, 0, 2)


def test_all_triangles_ccw():
    for mesh in (build_rect_mesh(2.0, 1.0, 5, 3),
                 build_rect_mesh(2.0, 1.0, 5, 3, crossed=True),
                 build_lshape_mesh(1.0, 0.6, 0.1)):
        assert np.all(signed_areas(mesh.nodes, mesh.triangles) > 0.0)


def test_boundary_edges_belong_to_one_triangle():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3, crossed=True)
    edges = np.vstack([mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]],
                       mesh.triangles[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    boundary = {tuple(e) for e in uniq[counts == 1]}
    assert boundary == {tuple(e) for e in np.sort(mesh.boundary_edges, axis=1)}


def test_lshape_area():
    mesh = build_lshape_mesh(1.0, 0.6, 0.1)
    assert abs(mesh.total_area - 0.64) < 1e-12


def test_lshape_coarse():
    mesh = build_lshape_mesh(1.0, 0.5, 0.5)
    assert abs(mesh.total_area - 0.75) < 1e-12


def test_lshape_void_walls_pretagged():
    mesh = build_lshape_mesh(1.0, 0.5, 0.25)
    va = mesh.edges_with_tag("void_a")
    vb = mesh.edges_with_tag("void_b")
    assert va.shape[0] == 2 and vb.shape[0] == 2
    assert np.allclose(mesh.nodes[np.unique(va)][:, 0], 0.5)
    assert np.allclose(mesh.nodes[np.unique(vb)][:, 1], 0.5)


def test_lshape_sliver():
    mesh = build_lshape_mesh(1.0, 0.999, 0.0005, crossed=False)
    assert np.all(signed_areas(mesh.nodes, mesh.triangles) > 0.0)
    assert abs(mesh.total_area - (1.0 - 0.999 ** 2)) < 1e-9


def test_lshape_invalid_cut():
    with pytest.raises(InvalidArgument):
        build_lshape_mesh(1.0, 1.0, 0.1)
    with pytest.raises(InvalidArgument):
        build_lshape_mesh(1.0, 0.57, 0.1)  # spacing does not divide cut


def test_tag_full_edge_any_resolution():
    for nx in (3, 4, 7):
        mesh = build_rect_mesh(1.0, 1.0, nx, nx)
        mesh = tag_boundary(mesh, (1.0, 0.0), (1.0, 1.0), "traction")
        assert mesh.edges_with_tag("traction").shape[0] == nx


def test_tag_no_match_raises():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    with pytest.raises(TagMatchError):
        tag_boundary(mesh, (0.5, 0.5), (0.6, 0.5), "inside")
    with pytest.raises(InvalidArgument, match="no boundary edges tagged 'inside'"):
        mesh.edges_with_tag("inside")


def test_tag_corner_patches():
    nx, h = 40, 1.0 / 40
    mesh = build_rect_mesh(1.0, 0.5, nx, 20)
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.05, 0.0), "roller")
    assert mesh.edges_with_tag("roller").shape[0] == int(np.ceil(0.05 / h))


def test_tag_last_write_wins_and_partition():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    total = mesh.boundary_edges.shape[0]
    mesh = tag_boundary(mesh, (0.0, 0.0), (1.0, 0.0), "a")
    mesh = tag_boundary(mesh, (0.0, 0.0), (0.5, 0.0), "b")
    counts = {t: int(np.sum(mesh.edge_tags == t)) for t in ("a", "b", FREE_TAG)}
    assert counts["b"] == 2 and counts["a"] == 2
    assert sum(counts.values()) == total


def test_mesh_immutable():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        mesh.nodes[0, 0] = 5.0


def test_mesh_geometry_is_cached_and_read_only():
    mesh = build_rect_mesh(1.0, 0.5, 3, 2, crossed=True)
    assert mesh.grads is mesh.grads
    assert mesh.node_areas is mesh.node_areas
    assert mesh.grads.shape == (mesh.num_triangles, 3, 2)
    assert mesh.node_areas.sum() == pytest.approx(mesh.total_area, rel=1e-14)
    # shape function gradients sum to zero on every element
    assert np.abs(mesh.grads.sum(axis=1)).max() < 1e-12
    with pytest.raises(ValueError):
        mesh.grads[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        mesh.node_areas[0] = 1.0

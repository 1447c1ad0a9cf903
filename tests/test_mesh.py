from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import molto.mesh as mesh_module
from molto.config import load_config
from molto.errors import InvalidArgument
from molto.mesh import (FREE_TAG, Mesh, _cells, _grid_mesh, build_lshape_mesh,
                        build_rect_mesh, signed_areas, tag_boundary)


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
    with pytest.raises(InvalidArgument):
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


def _unique_edges(triangles):
    """Every edge once and the edges of one triangle only, as np.unique
    finds them among the sorted node pairs of the triangles' sides."""
    sides = np.sort(np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]],
                               triangles[:, [2, 0]]]), axis=1)
    edges, counts = np.unique(sides, axis=0, return_counts=True)
    return edges, edges[counts == 1]


def _assert_edges_match_np_unique(mesh):
    edges, boundary = _unique_edges(mesh.triangles)
    for found, reference in ((mesh.edges, edges), (mesh.boundary_edges, boundary)):
        assert found.dtype == np.int32
        assert found.tolist() == reference.tolist()
    # a mesh built from its nodes and triangles alone derives the same edges
    bare = Mesh(mesh.nodes, mesh.triangles, mesh.spacing)
    assert bare.edges.tolist() == edges.tolist()
    assert bare.boundary_edges.tolist() == boundary.tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.data())
def test_edge_enumeration_matches_np_unique_on_cell_subsets(nx, ny, crossed, data):
    kept = np.array(data.draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny)
                              .filter(any)))
    ci, cj = _cells(nx, ny)
    mesh = _grid_mesh(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 0.5, ny + 1),
                      ci[kept], cj[kept], crossed, min(1.0 / nx, 0.5 / ny))
    _assert_edges_match_np_unique(mesh)


@pytest.mark.parametrize("crossed", [True, False])
def test_edge_enumeration_matches_np_unique_on_the_lshape(crossed):
    _assert_edges_match_np_unique(build_lshape_mesh(1.0, 0.6, 0.1, crossed=crossed))


def _packaged_fem_configs():
    paths = sorted((p for p in resources.files("molto.configs").iterdir()
                    if p.name.endswith(".cfg")), key=lambda p: p.name)
    return [pytest.param(config, id=path.name) for path in paths
            if (config := load_config(path)).kind != "surrogate"]


@pytest.mark.parametrize("config", _packaged_fem_configs())
def test_build_problem_validates_its_geometry_once(config, monkeypatch):
    # tagging shares the validated arrays instead of building a new mesh
    calls = []

    def counted(nodes, triangles):
        calls.append(triangles.shape[0])
        return signed_areas(nodes, triangles)

    monkeypatch.setattr(mesh_module, "signed_areas", counted)
    problem = config.build_problem()
    assert calls == [problem.mesh.num_triangles]


def test_tagged_mesh_shares_its_source_arrays():
    mesh = build_rect_mesh(1.0, 0.5, 4, 2, crossed=True)
    grads = mesh.grads
    tagged = tag_boundary(mesh, (0.0, 0.0), (1.0, 0.0), "bottom")
    for name in ("nodes", "triangles", "element_areas", "boundary_edges", "edges"):
        assert getattr(tagged, name) is getattr(mesh, name)
    assert tagged.grads is grads
    assert all(t == FREE_TAG for t in mesh.edge_tags)
    assert tagged.edges_with_tag("bottom").shape[0] == 4
    with pytest.raises(ValueError):
        tagged.edge_tags[0] = "other"


def test_clockwise_triangle_is_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    Mesh(nodes, np.array([[0, 1, 2]], dtype=np.int32), 1.0)
    with pytest.raises(InvalidArgument, match="non-positive triangle areas"):
        Mesh(nodes, np.array([[0, 2, 1]], dtype=np.int32), 1.0)

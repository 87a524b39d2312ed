import warnings

import numpy as np
import pytest
import scipy.linalg

import subsup
from subsup import AssemblyError


def write_off(path, vertices, faces, header="OFF", comment=True):
    lines = [header]
    if comment:
        lines.append("# test mesh")
    lines.append(f"{len(vertices)} {len(faces)} 0")
    for v in vertices:
        lines.append(" ".join(repr(float(c)) for c in v))
    for f in faces:
        lines.append("3 " + " ".join(str(i) for i in f))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


TETRA_VERTICES = [
    (1.0, 1.0, 1.0),
    (1.0, -1.0, -1.0),
    (-1.0, 1.0, -1.0),
    (-1.0, -1.0, 1.0),
]
TETRA_FACES = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]


def reference_icosphere(subdivisions):
    """Unit icosphere from a per-midpoint loop over a dict of edges.

    The oracle for the edge-array build: returns (coordinates, faces,
    refinement) with midpoints numbered in the order the loop creates them.
    """
    from subsup.geometry import _ICO_FACES, _ICO_VERTICES

    verts = [v / np.linalg.norm(v) for v in _ICO_VERTICES]
    faces = _ICO_FACES
    refinement = []
    for _ in range(subdivisions):
        coarse_count = len(verts)
        midpoint = {}

        def split(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = split(a, b), split(b, c), split(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = np.array(new_faces, dtype=np.int64)
        refinement.append((coarse_count, np.array(list(midpoint), dtype=np.int64)))
    return np.array(verts), faces, refinement


class TestIcosphereOracle:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("subdivisions", range(6))
    def test_matches_reference_loop(self, subdivisions):
        d = subsup.build_icosphere(subdivisions)
        coords, faces, refinement = reference_icosphere(subdivisions)
        assert d.faces.dtype == np.int64
        assert np.array_equal(d.faces, faces)
        assert len(d.refinement) == len(refinement)
        for (c, p), (rc, rp) in zip(d.refinement, refinement):
            assert c == rc
            assert p.dtype == np.int64 and np.array_equal(p, rp)
        # the reference normalizes with a BLAS dot product, which may fuse
        assert np.abs(d.coordinates - coords).max() <= 4 * self.EPS
        r = np.sqrt((d.coordinates**2).sum(axis=1))
        assert np.abs(r - 1.0).max() <= 4 * self.EPS

    @pytest.mark.parametrize("subdivisions", range(6))
    def test_closed_outward_mesh(self, subdivisions):
        d = subsup.build_icosphere(subdivisions)
        assert d.vertex_count == 10 * 4**subdivisions + 2
        assert len(d.faces) == 20 * 4**subdivisions
        # every undirected edge lies on exactly two faces
        edges = np.sort(d.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, counts = np.unique(edges, axis=0, return_counts=True)
        assert np.all(counts == 2)
        assert len(counts) == 30 * 4**subdivisions
        v = d.coordinates[d.faces]
        normals = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        assert np.all(np.einsum("ij,ij->i", normals, v.mean(axis=1)) > 0.0)


class TestIcosphere:
    def test_vertex_counts(self):
        for s in range(4):
            d = subsup.build_icosphere(s)
            assert d.vertex_count == 10 * 4**s + 2
            assert len(d.faces) == 20 * 4**s

    def test_vertices_on_sphere(self):
        for radius in (1.0, 2.0, 0.5):
            d = subsup.build_icosphere(2, radius=radius)
            r = np.linalg.norm(d.coordinates, axis=1)
            assert np.abs(r - radius).max() <= 1e-12

    def test_area_converges_to_sphere_area(self):
        errors = []
        for s in (1, 2, 3):
            d = subsup.build_icosphere(s)
            errors.append(abs(d.mass.sum() - 4.0 * np.pi))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 0.01 * 4.0 * np.pi

    def test_area_scales_with_radius(self):
        d = subsup.build_icosphere(3, radius=2.0)
        assert d.mass.sum() == pytest.approx(16.0 * np.pi, rel=0.01)
        assert d.mass.sum() == pytest.approx(50.265, rel=0.01)

    def test_subdivision_limits(self):
        with pytest.raises(ValueError):
            subsup.build_icosphere(9)
        with pytest.raises(ValueError):
            subsup.build_icosphere(-1)
        with pytest.raises(ValueError):
            subsup.build_icosphere(2, radius=0.0)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_rejects_non_finite_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            subsup.build_icosphere(1, radius=radius)

    @pytest.mark.parametrize("radius", [1e160, 1e300, 1e-160, 1e-300])
    def test_rejects_radius_outside_float_range(self, radius):
        # the face areas, and their squares in the assembly, must stay
        # finite and normal; no numpy warning on the way to the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="radius"):
                subsup.build_icosphere(1, radius=radius)

    @pytest.mark.parametrize("subdivisions", [1, 2, 3, 4])
    def test_refinement_records_parent_edges(self, subdivisions):
        fine = subsup.build_icosphere(subdivisions)
        coarse = subsup.build_icosphere(subdivisions - 1)
        assert len(fine.refinement) == subdivisions
        for (c, p), (cc, pp) in zip(fine.refinement, coarse.refinement):
            assert c == cc and np.array_equal(p, pp)
        coarse_count, parents = fine.refinement[-1]
        assert coarse_count == coarse.vertex_count
        assert parents.shape == (fine.vertex_count - coarse_count, 2)
        assert np.array_equal(fine.coordinates[:coarse_count], coarse.coordinates)
        # two distinct coarse vertices joined by a coarse edge
        assert np.all(parents[:, 0] != parents[:, 1])
        assert parents.max() < coarse_count
        edges = {
            tuple(sorted((int(f[k]), int(f[(k + 1) % 3]))))
            for f in coarse.faces
            for k in range(3)
        }
        split = {tuple(sorted(map(int, pair))) for pair in parents}
        assert split == edges
        midpoints = coarse.coordinates[parents].sum(axis=1)
        midpoints /= np.linalg.norm(midpoints, axis=1, keepdims=True)
        assert np.abs(fine.coordinates[coarse_count:] - midpoints).max() <= 1e-15

    def test_refinement_only_on_icospheres(self, tmp_path, torus8):
        assert subsup.build_icosphere(0).refinement == ()
        assert torus8.refinement is None
        path = write_off(tmp_path / "tet.off", TETRA_VERTICES, TETRA_FACES)
        assert subsup.load_off(path).refinement is None

    def test_quality_clean(self):
        q = subsup.mesh_quality(subsup.build_icosphere(2))
        assert q.obtuse_triangle_count == 0
        assert q.positive_offdiagonal_count == 0
        assert q.is_m_matrix_compatible


class TestFlatTorus:
    def test_circle_mass_and_stiffness(self):
        d = subsup.build_flat_torus([(4, 1.0)])
        assert d.vertex_count == 4
        assert np.allclose(d.mass, 0.25)
        L = d.stiffness.toarray()
        assert np.allclose(L, L.T)
        # w = h^{-1} with h = 1/4, so neighbors get -4, diagonal 8
        assert L[0, 0] == pytest.approx(8.0)
        assert L[0, 1] == pytest.approx(-4.0)
        assert np.abs(L.sum(axis=1)).max() == 0.0

    def test_mass_sums_to_volume(self):
        d = subsup.build_flat_torus([(8, 1.0), (4, 2.0), (5, 3.0)])
        assert d.mass.sum() == pytest.approx(6.0, rel=1e-12)
        assert d.vertex_count == 8 * 4 * 5

    @pytest.mark.parametrize(
        "length", [float("nan"), float("inf"), 0.0, -1.0, 1e-300, 1e300]
    )
    def test_rejects_lengths_outside_float_range(self, length):
        # at 1e-300, h^2 underflows to 0 and volume / h^2 divides by zero
        with pytest.raises(ValueError, match="axis length"):
            subsup.build_flat_torus([(4, length), (4, 1.0), (4, 1.0)])

    def test_constants_in_nullspace(self, torus8):
        ones = np.ones(torus8.vertex_count)
        assert np.abs(torus8.stiffness @ ones).max() == 0.0

    def test_first_eigenvalue_near_one(self, torus16_2d):
        vals = subsup.generalized_spectrum(torus16_2d, 3)
        assert vals[0] == pytest.approx(0.0, abs=1e-10)
        assert vals[1] == pytest.approx(1.0, rel=0.02)
        assert vals[2] == pytest.approx(1.0, rel=0.02)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            subsup.build_flat_torus([(2, 1.0)])
        with pytest.raises(ValueError):
            subsup.build_flat_torus([(8, -1.0)])
        with pytest.raises(ValueError):
            subsup.build_flat_torus([])
        with pytest.raises(ValueError):
            subsup.build_flat_torus([(4, 1.0)] * 4)

    def test_quality_clean(self, torus8):
        q = subsup.mesh_quality(torus8)
        assert q.positive_offdiagonal_count == 0
        assert q.is_m_matrix_compatible


class TestCotangentAssembly:
    def test_equilateral_weights(self, tmp_path):
        # single equilateral triangle: every off-diagonal is -cot(60 deg)/2
        s = 1.0
        verts = [(0, 0, 0), (s, 0, 0), (s / 2, s * np.sqrt(3) / 2, 0)]
        d = subsup.load_off(write_off(tmp_path / "tri.off", verts, [(0, 1, 2)]))
        L = d.stiffness.toarray()
        w = 1.0 / (2.0 * np.tan(np.pi / 3.0))
        assert L[0, 1] == pytest.approx(-w, abs=1e-12)
        assert w == pytest.approx(0.2887, abs=5e-5)
        area = s**2 * np.sqrt(3) / 4
        assert np.allclose(d.mass, area / 3.0)

    def test_matches_hand_assembly(self, tmp_path):
        # oracle: rebuild the tetrahedron stiffness from edge lengths alone
        d = subsup.load_off(write_off(tmp_path / "tet.off", TETRA_VERTICES, TETRA_FACES))
        n = d.vertex_count
        expected = np.zeros((n, n))
        masses = np.zeros(n)
        V = np.asarray(TETRA_VERTICES, dtype=float)
        for i, j, k in TETRA_FACES:
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                # cot of the angle at a, from the law of cosines
                e_ab = np.linalg.norm(V[b] - V[a])
                e_ac = np.linalg.norm(V[c] - V[a])
                e_bc = np.linalg.norm(V[c] - V[b])
                cos_a = (e_ab**2 + e_ac**2 - e_bc**2) / (2 * e_ab * e_ac)
                cot_a = cos_a / np.sqrt(1.0 - cos_a**2)
                expected[b, c] -= cot_a / 2.0
                expected[c, b] -= cot_a / 2.0
                expected[b, b] += cot_a / 2.0
                expected[c, c] += cot_a / 2.0
            area = 0.5 * np.linalg.norm(np.cross(V[j] - V[i], V[k] - V[i]))
            for v in (i, j, k):
                masses[v] += area / 3.0
        assert np.allclose(d.stiffness.toarray(), expected, atol=1e-12)
        assert np.allclose(d.mass, masses)

    def test_stiffness_psd_with_constant_nullspace(self, icosphere2):
        L = icosphere2.stiffness.toarray()
        vals = scipy.linalg.eigvalsh(L)
        assert vals[0] >= -1e-10
        assert abs(vals[0]) <= 1e-10  # constants
        assert vals[1] > 1e-3

    def test_symmetry_and_nullspace_bounds(self, icosphere3):
        L = icosphere3.stiffness
        assert abs(L - L.T).max() <= 1e-12
        ones = np.ones(icosphere3.vertex_count)
        assert np.abs(L @ ones).max() <= 1e-10 * abs(L).max()

    def test_degenerate_face_rejected(self, tmp_path):
        verts = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]  # collinear
        path = write_off(tmp_path / "bad.off", verts, [(0, 1, 2)])
        with pytest.raises(AssemblyError, match="face 0"):
            subsup.load_off(path)

    @pytest.mark.parametrize("scale", [1e100, 1e-78])
    def test_scale_outside_float_range_rejected(self, tmp_path, scale):
        # 1e100: the squared twice-areas overflow; 1e-78: they are subnormal
        verts = [[scale * c for c in v] for v in TETRA_VERTICES]
        path = write_off(tmp_path / "scaled.off", verts, TETRA_FACES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AssemblyError, match="floating-point range"):
                subsup.load_off(path)

    def test_obtuse_triangle_flagged(self, tmp_path):
        verts = [(0, 0, 0), (4, 0, 0), (2, 0.2, 0), (2, -0.2, 0)]
        faces = [(0, 1, 2), (1, 0, 3)]
        d = subsup.load_off(write_off(tmp_path / "obtuse.off", verts, faces))
        q = subsup.mesh_quality(d)
        assert q.obtuse_triangle_count == 2
        assert q.positive_offdiagonal_count > 0
        assert not q.is_m_matrix_compatible


class TestLoadOff:
    def test_round_trip_counts(self, tmp_path):
        d = subsup.load_off(write_off(tmp_path / "t.off", TETRA_VERTICES, TETRA_FACES))
        assert d.vertex_count == 4
        assert len(d.faces) == 4
        assert d.kind == "off"
        assert d.is_surface

    def test_comments_and_blank_lines(self, tmp_path):
        text = "OFF\n# header comment\n\n3 1 0\n0 0 0\n# mid comment\n1 0 0\n0 1 0\n\n3 0 1 2\n"
        path = tmp_path / "c.off"
        path.write_text(text)
        d = subsup.load_off(str(path))
        assert d.vertex_count == 3

    def test_rejects_bad_header(self, tmp_path):
        path = write_off(tmp_path / "h.off", TETRA_VERTICES, TETRA_FACES, header="PLY")
        with pytest.raises(AssemblyError):
            subsup.load_off(path)

    def test_rejects_non_triangles(self, tmp_path):
        text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        path = tmp_path / "quad.off"
        path.write_text(text)
        with pytest.raises(AssemblyError, match="triangle"):
            subsup.load_off(str(path))

    def test_rejects_out_of_range_index(self, tmp_path):
        text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n"
        path = tmp_path / "idx.off"
        path.write_text(text)
        with pytest.raises(AssemblyError):
            subsup.load_off(str(path))

    def test_disconnected_mesh_detected(self, tmp_path):
        verts = [
            (0, 0, 0), (1, 0, 0), (0, 1, 0),
            (10, 0, 0), (11, 0, 0), (10, 1, 0),
        ]
        faces = [(0, 1, 2), (3, 4, 5)]
        d = subsup.load_off(write_off(tmp_path / "dis.off", verts, faces))
        assert not d.is_connected()
        assert subsup.build_icosphere(1).is_connected()

    @pytest.mark.parametrize(
        "domain",
        [
            subsup.build_icosphere(0),
            subsup.build_icosphere(2),
            subsup.build_flat_torus([(3, 1.0)]),
            subsup.build_flat_torus([(3, 1.0), (5, 2.0)]),
            subsup.build_flat_torus([(3, 1.0), (4, 1.0), (3, 7.0)]),
        ],
        ids=["ico0", "ico2", "torus3", "torus3x5", "torus3x4x3"],
    )
    def test_connected_by_construction(self, domain):
        # grids and icospheres skip the search; it would agree
        from scipy.sparse.csgraph import connected_components

        n_comp, _ = connected_components(domain.stiffness, directed=False)
        assert n_comp == 1
        assert domain.is_connected()


class TestSpectrum:
    def test_sphere_eigenvalues(self, icosphere3):
        # Laplace-Beltrami on the unit sphere: l(l+1) with multiplicity 2l+1
        vals = subsup.generalized_spectrum(icosphere3, 4)
        assert vals[0] == pytest.approx(0.0, abs=1e-8)
        for v in vals[1:]:
            assert v == pytest.approx(2.0, rel=0.05)

    def test_matches_dense_oracle(self, icosphere3):
        # icosphere(3) has 642 vertices, forcing the sparse path
        got = subsup.generalized_spectrum(icosphere3, 6)
        L = icosphere3.stiffness.toarray()
        M = np.diag(icosphere3.mass)
        expected = scipy.linalg.eigh(L, M, eigvals_only=True)[:6]
        assert np.allclose(got, expected, atol=1e-9)

    def test_deterministic(self, icosphere3):
        a = subsup.generalized_spectrum(icosphere3, 5)
        b = subsup.generalized_spectrum(icosphere3, 5)
        assert np.array_equal(a, b)

    def test_sorted_ascending(self, torus16_2d):
        vals = subsup.generalized_spectrum(torus16_2d, 8)
        assert len(vals) == 8
        assert np.all(np.diff(vals) >= -1e-12)

    def test_k_out_of_range(self, icosphere2):
        with pytest.raises(ValueError):
            subsup.generalized_spectrum(icosphere2, 0)
        with pytest.raises(ValueError):
            subsup.generalized_spectrum(icosphere2, 10**6)


class TestDomainApi:
    def test_field_coercion(self, torus8):
        f = torus8.field(2.5)
        assert f.values.shape == (torus8.vertex_count,)
        assert np.all(f.values == 2.5)
        g = torus8.field(f)
        assert g is f
        with pytest.raises(ValueError):
            torus8.field(np.ones(3))
        with pytest.raises(ValueError):
            torus8.field(np.array([np.nan] * torus8.vertex_count))

    def test_field_rejects_foreign_domain(self, torus8, icosphere2):
        f = icosphere2.field(1.0)
        with pytest.raises(ValueError):
            torus8.field(f)

    def test_mass_matrix_diagonal(self, icosphere2):
        M = icosphere2.mass_matrix
        assert np.allclose(M.diagonal(), icosphere2.mass)
        assert M.nnz == icosphere2.vertex_count

    def test_to_json_dict(self, torus8, icosphere2):
        d = torus8.to_json_dict()
        assert d["kind"] == "flat_torus"
        assert d["vertex_count"] == 512
        d = icosphere2.to_json_dict()
        assert d["kind"] == "icosphere"
        assert len(d["faces"]) == 320

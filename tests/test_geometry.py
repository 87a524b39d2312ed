import math
import tracemalloc
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


def reference_subdivision(subdivisions, radius):
    """(coordinates, faces, refinement) of the icosphere by np.unique.

    The oracle for the single-sort subdivision: the edges numbered by
    np.unique's first indices and an argsort of them, the midpoints
    appended by concatenation.  Bit for bit the earlier program's build.
    """
    from subsup.geometry import _ICO_FACES, _ICO_VERTICES

    def normalized(v):
        return v / np.sqrt((v * v).sum(axis=1, keepdims=True))

    verts = normalized(_ICO_VERTICES)
    faces = _ICO_FACES
    refinement = []
    for _ in range(subdivisions):
        coarse_count = len(verts)
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, inverse = np.unique(
            edges[:, 0] * coarse_count + edges[:, 1],
            return_index=True,
            return_inverse=True,
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        parents = edges[first[order]]
        verts = np.concatenate(
            [verts, normalized(verts[parents[:, 0]] + verts[parents[:, 1]])]
        )
        a, b, c = faces.T
        ab, bc, ca = (coarse_count + rank[inverse]).reshape(-1, 3).T
        faces = np.stack(
            [a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1
        ).reshape(-1, 3)
        refinement.append((coarse_count, parents))
    return radius * verts, faces, refinement


def reference_cotangents(coords, faces):
    """(F, 3) corner cotangents and face areas from the corners' differences.

    The oracle for the edge-vector cotangents: three vertex gathers, the
    differences from each corner, np.cross, np.linalg.norm and einsum.
    """
    v = [coords[faces[:, k]] for k in range(3)]
    double_area = np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0]), axis=1)
    cots = np.empty((len(faces), 3))
    for k in range(3):
        a, b, c = v[k], v[(k + 1) % 3], v[(k + 2) % 3]
        cots[:, k] = np.einsum("ij,ij->i", b - a, c - a) / double_area
    return cots, 0.5 * double_area


def corner_major_reference(coords, faces):
    """reference_cotangents with the cotangents as (3, F), the program's layout."""
    cots, areas = reference_cotangents(coords, faces)
    return np.ascontiguousarray(cots.T), areas


def reference_mass(coords, faces):
    """Lumped mass by np.add.at: a third of each face's area to each corner."""
    _, areas = reference_cotangents(coords, faces)
    mass = np.zeros(len(coords))
    np.add.at(mass, faces.ravel(), np.repeat(areas / 3.0, 3))
    return mass


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

    @pytest.mark.parametrize("radius", [1.0, 1.5])
    @pytest.mark.parametrize("subdivisions", range(7))
    def test_bitwise_the_reference_build(self, subdivisions, radius, monkeypatch):
        d = subsup.build_icosphere(subdivisions, radius=radius)
        coords, faces, refinement = reference_subdivision(subdivisions, radius)
        assert_bitwise(d.coordinates, coords)
        assert d.faces.dtype == faces.dtype and np.array_equal(d.faces, faces)
        assert len(d.refinement) == len(refinement)
        for (c, p), (rc, rp) in zip(d.refinement, refinement):
            assert c == rc
            assert p.dtype == rp.dtype and np.array_equal(p, rp)
        assert_bitwise(d.mass, reference_mass(coords, faces))
        # the same mesh assembled from the oracle's cotangents
        monkeypatch.setattr(
            subsup.geometry, "_corner_cotangents", corner_major_reference
        )
        expected = subsup.DiscreteDomain("icosphere", coords, faces=faces)
        for got, want in zip(d.L, expected.L):
            assert_bitwise(got, want)

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


class TestBuildMemory:
    # the tracemalloc peak of a build above what was traced before it, and
    # what the domain holds after it, in float64 vectors of the vertex
    # count.  Peaks: 41.2 on icospheres 5 and 6, 24.0 on torus 32^3 and
    # 17.0 on torus 256^2, bounded with 15% to spare; the build that kept
    # its pair arrays and last subdivision alive through the slot layout
    # peaked at 61.0, 39.0 and 28.0, and grids that stored their (N, 3)
    # coordinates at 27.0 and 20.0.  Held: 25.1, 14.0 and 10.0 (17.0 and
    # 13.0 with stored grid coordinates), bounded with 3-5% to spare.
    # Under an outer trace (PYTHONTRACEMALLOC) the test measures from the
    # traced size at its start and leaves the trace running.
    @pytest.mark.parametrize(
        "build, peak_bound, held_bound",
        [
            (lambda: subsup.build_icosphere(5), 47.0, 26.4),
            (lambda: subsup.build_icosphere(6), 47.0, 26.4),
            (lambda: subsup.build_flat_torus([(32, 1.0)] * 3), 27.6, 14.5),
            (lambda: subsup.build_flat_torus([(256, 1.0)] * 2), 19.6, 10.5),
        ],
        ids=["icosphere5", "icosphere6", "torus32", "torus256x256"],
    )
    def test_peak_in_vertex_vectors(self, build, peak_bound, held_bound):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            domain = build()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        vector = 8 * domain.vertex_count
        assert (peak - before) / vector <= peak_bound
        assert (held - before) / vector <= held_bound


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

    @pytest.mark.parametrize(
        "dims",
        [[(10**12, 1.0)], [(10**7, 1.0)] * 2, [(10**7, 1.0)] * 3, [(128, 1.0)] * 3],
    )
    def test_refuses_more_vertices_than_the_largest_icosphere(self, dims, monkeypatch):
        # refused before any grid is built; [10**7] * 3 overflows an int64
        # product, and 128^3 is the first cube past 655,362 vertices
        def assemble_grid(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(subsup.geometry, "_assemble_grid", assemble_grid)
        count = math.prod(c for c, _ in dims)
        assert count > subsup.geometry.MAX_VERTICES == 655_362
        with pytest.raises(ValueError, match=f"torus of {count} vertices exceeds"):
            subsup.build_flat_torus(dims)

    def test_quality_clean(self, torus8):
        q = subsup.mesh_quality(torus8)
        assert q.positive_offdiagonal_count == 0
        assert q.is_m_matrix_compatible

    @pytest.mark.parametrize(
        "dims",
        [[(7, 1.3)], [(16, 6.25), (5, 1.0)], [(8, 1.0), (3, 2.0), (5, 0.7)]],
        ids=["1d", "2d", "3d"],
    )
    def test_coordinates_are_formed_on_each_access(self, dims):
        # a grid stores no coordinates; each access forms them afresh,
        # bit for bit the lattice build_flat_torus used to store
        d = subsup.build_flat_torus(dims)
        first = d.coordinates
        assert first is not d.coordinates
        assert_bitwise(first, grid_coordinates(dims))
        assert_bitwise(d.coordinates, first)
        assert d.vertex_count == first.shape[0]


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

    def test_to_json_dict(self, torus8, icosphere2):
        d = torus8.to_json_dict()
        assert d["kind"] == "flat_torus"
        assert d["vertex_count"] == 512
        d = icosphere2.to_json_dict()
        assert d["kind"] == "icosphere"
        assert len(d["faces"]) == 320

    @pytest.mark.parametrize(
        "name", ["torus8", "icosphere3", "torus16_2d", "irregular_off", "bipyramid"]
    )
    def test_stiffness_action_is_the_edge_form_of_L(self, name, request, tmp_path):
        if name == "irregular_off":
            domain = irregular_off(tmp_path / "irregular.off")
            valences = np.diff(domain.stiffness.indptr) - 1
            assert valences.min() == 3 and valences.max() == 10
        elif name == "bipyramid":
            domain = bipyramid_off(tmp_path / "bipyramid.off", 300)
        else:
            domain = request.getfixturevalue(name)
        n = domain.vertex_count
        rng = np.random.default_rng(7)
        v = rng.uniform(0.0, 1.0, n)
        expected = domain.stiffness @ v
        got = domain.L.edge_product(v)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        # exact cancellation on constants, which the CSR matvec lacks
        assert np.all(domain.L.edge_product(np.full(n, 0.3)) == 0.0)
        # bitwise the CSR-order edge sum, sign of zero included
        for field in (v, np.full(n, 0.3), 1e-12 * v, -rng.uniform(0.0, 1.0, n)):
            got = domain.L.edge_product(field)
            expected = edge_sum_reference(domain, field)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_stiffness_action_pads_the_five_neighbour_rows(self, icosphere3):
        L = icosphere3.L
        n = icosphere3.vertex_count
        # six neighbours; the diagonal is a vector, not a slot
        assert L.columns.shape == (6, n)
        assert L.weights.shape == (6 * n,)
        assert L.columns.dtype == np.intp
        assert L.rest_rows.size == 0
        # the 12 vertices of the icosahedron have five neighbours
        pads = np.flatnonzero(L.weights[5 * n :] == 0.0)
        assert np.array_equal(pads, np.arange(12))
        assert np.array_equal(L.columns[5, pads], pads)
        assert np.array_equal(L.diagonal, icosphere3.stiffness.diagonal())

    def test_edge_layout_stays_linear_in_the_entries_at_a_hub(self, tmp_path):
        ring = 2000
        domain = bipyramid_off(tmp_path / "bipyramid.off", ring)
        L = domain.L
        entries = domain.stiffness.nnz - domain.vertex_count  # off the diagonal
        # the four slots every ring vertex fills are fixed-width; the two
        # apexes' further ring - 4 entries each go to the scatter
        assert L.columns.shape == (4, ring + 2)
        assert L.rest_rows.size == 2 * (ring - 4)
        assert set(L.rest_rows.tolist()) == {ring, ring + 1}
        assert L.columns.size + L.rest_columns.size <= 2 * entries
        assert np.array_equal(L.diagonal, domain.stiffness.diagonal())


def edge_sum_reference(domain, values):
    """L v as sum_j L_ij (v_j - v_i), accumulated by bincount in CSR order.

    The reference for SlotLayout.edge_product: the entries of each row, diagonal
    included, summed one after another from 0.
    """
    L, n = domain.stiffness, domain.vertex_count
    counts = np.diff(L.indptr)
    flux = (values[L.indices] - np.repeat(values, counts)) * L.data
    return np.bincount(np.repeat(np.arange(n), counts), weights=flux, minlength=n)


def bipyramid_off(path, ring):
    """A ring of vertices on the unit circle joined to two apexes.

    Every ring vertex has 4 neighbours and each apex has ring of them, so
    one high-valence pair sits on an otherwise uniform mesh.
    """
    t = 2.0 * np.pi * np.arange(ring) / ring
    verts = [(np.cos(a), np.sin(a), 0.0) for a in t] + [(0, 0, 1.0), (0, 0, -1.0)]
    faces = []
    for i in range(ring):
        j = (i + 1) % ring
        faces += [(i, j, ring), (j, i, ring + 1)]
    return subsup.load_off(write_off(path, verts, faces))


def irregular_off(path):
    """Icosphere 1 with a centre vertex added to every third face.

    Valences range from 3 (the centres) to 10, so the layout pads rows
    of several lengths and scatters the entries of the longest ones.
    """
    base = subsup.build_icosphere(1)
    verts = list(base.coordinates)
    faces = []
    for t, (a, b, c) in enumerate(base.faces):
        if t % 3:
            faces.append((a, b, c))
            continue
        centre = base.coordinates[[a, b, c]].mean(axis=0)
        verts.append(centre / np.linalg.norm(centre))
        m = len(verts) - 1
        faces += [(a, b, m), (b, c, m), (c, a, m)]
    return subsup.load_off(write_off(path, verts, faces))



def cube_off(path):
    """The unit cube's surface, each square split along a diagonal.

    Every right angle has a cotangent of exactly 0, so each diagonal's
    two weights are -0.0 and sum to a stored zero in W, which L drops.
    """
    verts = [(x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    quads = [
        (0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
        (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3),
    ]
    faces = []
    for a, b, c, d in quads:
        faces += [(a, b, c), (a, c, d)]
    return subsup.load_off(write_off(path, verts, faces))


def scipy_stiffness(domain):
    """L assembled by scipy.sparse as the program did before: the oracle.

    W from a COO matrix of the pair weights in both directions, then
    W - diag(W 1) by a sparse sum, which drops the entries that are 0.
    """
    import scipy.sparse as sp

    n = domain.vertex_count
    if domain.is_surface:
        faces = domain.faces
        cots, _ = reference_cotangents(domain.coordinates, faces)
        pairs = [
            (faces[:, (k + 1) % 3], faces[:, (k + 2) % 3], 0.5 * cots[:, k])
            for k in range(3)
        ]
    else:
        spacings = [l / c for c, l in zip(domain.grid_cells, domain.grid_lengths)]
        volume = float(np.prod(spacings))
        idx = np.arange(n).reshape(domain.grid_cells)
        pairs = []
        for k, h in enumerate(spacings):
            j = np.roll(idx, -1, axis=k).ravel()
            pairs.append((idx.ravel(), j, np.full(n, volume / (h * h))))
    rows, cols, data = [], [], []
    for i, j, w in pairs:
        rows += [i, j]
        cols += [j, i]
        data += [-w, -w]
    off = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return (off + sp.diags(-np.asarray(off.sum(axis=1)).ravel())).tocsr()


def grid_coordinates(dims):
    """A flat torus's vertex positions, vertex by vertex: the vertex with
    index j on axis k (C order) sits at j * (length / cells) on
    coordinate k, unused coordinates 0."""
    cells = [c for c, _ in dims]
    index = np.unravel_index(np.arange(math.prod(cells)), cells)
    coordinates = np.zeros((math.prod(cells), 3))
    for k, (j, (c, length)) in enumerate(zip(index, dims)):
        coordinates[:, k] = j * (length / c)
    return coordinates


def assert_bitwise(got, expected):
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def layout_entries(L):
    """(rows, columns, weights) of a SlotLayout's off-diagonal entries.

    Row by row, and within a row in slot order: the fixed-width slots,
    then the scattered ones.
    """
    n = L.diagonal.size
    rows = np.concatenate([np.tile(np.arange(n), len(L.columns)), L.rest_rows])
    columns = np.concatenate([L.columns.ravel(), L.rest_columns])
    entry = rows != columns  # not a pad
    order = np.argsort(rows[entry], kind="stable")
    return rows[entry][order], columns[entry][order], L.weights[entry][order]


def assert_same_off_diagonal(L, expected):
    """The layout holds expected's off-diagonal entries bitwise, in CSR order."""
    rows = np.repeat(np.arange(expected.shape[0]), np.diff(expected.indptr))
    off = expected.indices != rows
    got_rows, got_columns, got_weights = layout_entries(L)
    assert np.array_equal(got_rows, rows[off])
    assert np.array_equal(got_columns, expected.indices[off])
    assert_bitwise(got_weights, expected.data[off])


ASSEMBLY_DOMAINS = {
    "torus1d": lambda tmp: subsup.build_flat_torus([(7, 1.0)]),
    "torus2d": lambda tmp: subsup.build_flat_torus([(16, 6.25), (5, 1.0)]),
    "torus3d": lambda tmp: subsup.build_flat_torus([(8, 1.0), (3, 2.0), (5, 0.7)]),
    **{
        f"ico{k}": (lambda k: lambda tmp: subsup.build_icosphere(k, radius=1.5))(k)
        for k in range(7)
    },
    "irregular_off": lambda tmp: irregular_off(tmp / "irregular.off"),
    "bipyramid": lambda tmp: bipyramid_off(tmp / "bipyramid.off", 300),
    "cube": lambda tmp: cube_off(tmp / "cube.off"),
}


class TestCSRAssembly:
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_DOMAINS))
    def test_bitwise_the_scipy_assembly(self, name, tmp_path, monkeypatch):
        # the off-diagonal entries, with the stable-argsort fallback too
        expected = None
        for limit in (subsup.geometry._TAGGED_LIMIT, 0):
            monkeypatch.setattr(subsup.geometry, "_TAGGED_LIMIT", limit)
            domain = ASSEMBLY_DOMAINS[name](tmp_path)
            if expected is None:
                expected = scipy_stiffness(domain)
            assert_same_off_diagonal(domain.L, expected)
        # the scipy matrix built from the layout has the same pattern
        stiffness = domain.stiffness
        assert stiffness.has_canonical_format
        assert np.array_equal(stiffness.indptr, expected.indptr)
        assert np.array_equal(stiffness.indices, expected.indices)

    @pytest.mark.parametrize("name", sorted(ASSEMBLY_DOMAINS))
    def test_diagonal_is_the_scipy_row_sum_within_ulps(self, name, tmp_path, monkeypatch):
        # the row sums are taken in another order than scipy's; their
        # rounding scales with the sum of the magnitudes of the terms
        expected = None
        for limit in (subsup.geometry._TAGGED_LIMIT, 0):
            monkeypatch.setattr(subsup.geometry, "_TAGGED_LIMIT", limit)
            domain = ASSEMBLY_DOMAINS[name](tmp_path)
            if expected is None:
                expected = scipy_stiffness(domain)
                magnitude = abs(expected) @ np.ones(domain.vertex_count)
            error = np.abs(domain.L.diagonal - expected.diagonal())
            assert np.all(error <= 4 * np.spacing(magnitude))

    @pytest.mark.parametrize("name", sorted(ASSEMBLY_DOMAINS))
    def test_diagonal_is_minus_the_csr_order_row_sum(self, name, tmp_path):
        # each row's off-diagonal entries summed one after another from 0
        domain = ASSEMBLY_DOMAINS[name](tmp_path)
        rows, _, weights = layout_entries(domain.L)
        expected = -np.bincount(rows, weights, minlength=domain.vertex_count)
        assert_bitwise(domain.L.diagonal, expected)

    def test_exactly_zero_cotangents_are_dropped(self, tmp_path):
        domain = cube_off(tmp_path / "cube.off")
        # the six face diagonals are mesh edges, but only the twelve cube
        # edges stay: three neighbours per vertex, no pad
        assert len(domain.faces) == 12
        assert domain.L.columns.shape == (3, 8)
        assert domain.L.rest_rows.size == 0
        assert np.all(domain.L.weights != 0.0)

    def test_stable_argsort_fallback_gives_the_same_arrays(self, tmp_path, monkeypatch):
        # the tagged-value sort overflows int64 past ~10^6 vertices
        fast = irregular_off(tmp_path / "irregular.off").L
        monkeypatch.setattr(subsup.geometry, "_TAGGED_LIMIT", 0)
        slow = irregular_off(tmp_path / "again.off").L
        for got, expected in zip(slow, fast):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_mesh_quality_reads_the_arrays(self, tmp_path):
        verts = [(0, 0, 0), (1, 0, 0), (0.5, 0.1, 0), (0.5, -0.1, 0)]
        faces = [(0, 1, 2), (1, 0, 3)]
        d = subsup.load_off(write_off(tmp_path / "obtuse.off", verts, faces))
        L = d.stiffness.tocoo()
        positive = np.count_nonzero(L.data[L.row != L.col] > 1e-12)
        assert subsup.mesh_quality(d).positive_offdiagonal_count == positive > 0

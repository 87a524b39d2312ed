"""Discrete domains and their operators.

Two kinds of domain are supported: closed triangle surfaces (icospheres,
OFF files) and periodic grids in one to three axes.  Either way the
domain carries a stiffness matrix L (the discrete Dirichlet form,
symmetric positive semidefinite with L @ 1 = 0) and a lumped mass vector
m (the diagonal volume form).  Downstream modules never look at the
geometry again; L and m are the whole interface.

Surfaces use cotangent weights with barycentric mass lumping, grids the
standard second-order finite-difference stencil scaled so that u' L u
and u' M u approximate the Dirichlet energy and the volume integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class AssemblyError(ValueError):
    """Operator assembly hit degenerate geometry."""


# Golden-ratio icosahedron, seed of every icosphere.
_PHI = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTICES = np.array(
    [
        [-1.0, _PHI, 0.0], [1.0, _PHI, 0.0], [-1.0, -_PHI, 0.0], [1.0, -_PHI, 0.0],
        [0.0, -1.0, _PHI], [0.0, 1.0, _PHI], [0.0, -1.0, -_PHI], [0.0, 1.0, -_PHI],
        [_PHI, 0.0, -1.0], [_PHI, 0.0, 1.0], [-_PHI, 0.0, -1.0], [-_PHI, 0.0, 1.0],
    ]
)
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)

MAX_SUBDIVISIONS = 8

_SQRT_TINY = np.sqrt(np.finfo(float).tiny)
_SQRT_MAX = np.sqrt(np.finfo(float).max)


class DiscreteDomain:
    """Immutable discrete domain with assembled operators.

    Attributes
    ----------
    kind : str
        ``"icosphere"`` or ``"off"`` for triangle surfaces,
        ``"flat_torus"`` for periodic grids.
    coordinates : (N, 3) ndarray
        Vertex positions (grids are embedded with axis k on coordinate k,
        unused coordinates zero).
    faces : (F, 3) int ndarray or None
        Triangles for surfaces, None for grids.
    grid_cells, grid_lengths, grid_spacings : tuples or None
        Lattice description, grids only.
    dimension : int
        Declared dimension n of the problem; independent of the embedding
        (a surface scenario may declare n = 3, which is what feeds the
        growth exponents downstream).
    stiffness : csr_matrix
    mass : (N,) ndarray
        Diagonal of the lumped mass matrix, strictly positive.
    refinement : tuple or None
        Subdivided icospheres only, None otherwise: one
        ``(coarse_count, parents)`` pair per subdivision, coarsest first.
        The vertices of a subdivision are the ``coarse_count`` vertices
        of the mesh before it, then one midpoint per row of the
        ``(n_new, 2)`` int array ``parents``, which names the coarse
        edge it splits.
    """

    def __init__(
        self, kind, coordinates, faces=None, grid=None, dimension=None, refinement=None
    ):
        self.kind = str(kind)
        self.refinement = refinement
        self.coordinates = np.ascontiguousarray(coordinates, dtype=float)
        if self.coordinates.ndim != 2 or self.coordinates.shape[1] != 3:
            raise ValueError("coordinates must be an (N, 3) array")
        self.faces = None
        self.grid_cells = None
        self.grid_lengths = None
        self.grid_spacings = None
        if faces is not None:
            self.faces = np.ascontiguousarray(faces, dtype=np.int64)
            if self.faces.ndim != 2 or self.faces.shape[1] != 3:
                raise ValueError("faces must be an (F, 3) array")
            natural = 2
        elif grid is not None:
            cells, lengths = grid
            self.grid_cells = tuple(int(c) for c in cells)
            self.grid_lengths = tuple(float(l) for l in lengths)
            self.grid_spacings = tuple(
                l / c for c, l in zip(self.grid_cells, self.grid_lengths)
            )
            natural = len(self.grid_cells)
        else:
            raise ValueError("domain needs faces or a grid description")
        self.dimension = int(dimension) if dimension is not None else natural
        if self.dimension < 1:
            raise ValueError("declared dimension must be >= 1")
        self.stiffness, self.mass = assemble_operators(self)
        self._connected = None

    @property
    def vertex_count(self):
        return self.coordinates.shape[0]

    @property
    def is_surface(self):
        return self.faces is not None

    @property
    def mass_matrix(self):
        return sp.diags(self.mass).tocsr()

    def field(self, values):
        """Coerce a scalar, array or Field to a Field on this domain."""
        if isinstance(values, Field):
            if values.domain is not self:
                raise ValueError("field belongs to a different domain")
            return values
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 0:
            arr = np.full(self.vertex_count, float(arr))
        return Field(self, arr)

    def is_connected(self):
        """Periodic grids and icospheres are connected by construction."""
        if self.grid_cells is not None or self.refinement is not None:
            return True
        if self._connected is None:
            # imported here: only OFF meshes need it, and csgraph costs ~0.1 s
            from scipy.sparse.csgraph import connected_components

            n_comp, _ = connected_components(self.stiffness, directed=False)
            self._connected = bool(n_comp == 1)
        return self._connected

    def to_json_dict(self):
        """Export {kind, vertex_count, coordinates, faces|grid}."""
        out = {
            "kind": self.kind,
            "vertex_count": self.vertex_count,
            "coordinates": self.coordinates.tolist(),
        }
        if self.is_surface:
            out["faces"] = self.faces.tolist()
        else:
            out["grid"] = {
                "cells": list(self.grid_cells),
                "lengths": [float(l) for l in self.grid_lengths],
            }
        return out

    def __repr__(self):
        return f"DiscreteDomain(kind={self.kind!r}, vertices={self.vertex_count})"


@dataclass(eq=False)
class Field:
    """Per-vertex real array tied to a domain."""

    domain: DiscreteDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.domain.vertex_count,):
            raise ValueError(
                f"field has {self.values.shape} values, expected "
                f"({self.domain.vertex_count},)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")


@dataclass
class MeshQualityReport:
    obtuse_triangle_count: int
    positive_offdiagonal_count: int
    is_m_matrix_compatible: bool


def build_icosphere(subdivisions, radius=1.0, dimension=None):
    """Subdivided icosahedron projected to the sphere of given radius.

    Vertex count is 10 * 4**subdivisions + 2.  Each subdivision appends
    the midpoints of the current edges after the current vertices, and
    ``domain.refinement`` records their parent edges.

    Midpoints are numbered in creation order: walk the faces in order and
    the edges (a, b), (b, c), (c, a) of each, and an edge's midpoint takes
    the next number the first time the edge is met.  Face t becomes the
    four faces 4t..4t+3: (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca).

    Vertices are normalized with elementwise numpy arithmetic (x*x + y*y
    + z*z, then sqrt), not ``np.linalg.norm``, whose BLAS dot product may
    fuse multiply-adds; so the coordinates do not depend on the BLAS
    library and differ from a fused computation by a few ulp.
    """
    subdivisions = int(subdivisions)
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    if subdivisions > MAX_SUBDIVISIONS:
        raise ValueError(
            f"subdivision limit exceeded: {subdivisions} > {MAX_SUBDIVISIONS}"
        )
    radius = float(radius)
    if not 0.0 < radius < np.inf:
        raise ValueError("radius must be a finite number > 0")

    def normalized(v):
        return v / np.sqrt((v * v).sum(axis=1, keepdims=True))

    verts = normalized(_ICO_VERTICES)
    faces = _ICO_FACES
    refinement = []
    for _ in range(subdivisions):
        coarse_count = len(verts)
        # the 3F face edges in creation order, as sorted pairs coded i*n + j
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, inverse = np.unique(
            edges[:, 0] * coarse_count + edges[:, 1],
            return_index=True,
            return_inverse=True,
        )
        # number the unique edges by rank of first appearance
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

    coords = radius * verts
    try:
        return DiscreteDomain(
            "icosphere",
            coords,
            faces=faces,
            dimension=dimension,
            refinement=tuple(refinement),
        )
    except AssemblyError as exc:
        # the unit mesh assembles, so only the radius can break it
        raise ValueError(
            f"radius {radius:g} puts the face areas out of floating-point range"
        ) from exc


def build_flat_torus(dims, dimension=None):
    """Periodic grid from [(cells, length), ...] with 1 to 3 axes."""
    dims = list(dims)
    if not 1 <= len(dims) <= 3:
        raise ValueError("flat torus takes 1 to 3 axes")
    cells = []
    lengths = []
    for c, l in dims:
        c = int(c)
        l = float(l)
        if c < 3:
            raise ValueError(f"fewer than 3 cells per axis: {c}")
        if not 0.0 < l < np.inf:
            raise ValueError("axis length must be a finite number > 0")
        cells.append(c)
        lengths.append(l)

    spacings = [l / c for c, l in zip(cells, lengths)]
    with np.errstate(all="ignore"):  # the grid weights are volume / h^2
        weights = np.prod(spacings) / np.square(spacings)
    if not np.all((weights > 0.0) & (weights < np.inf)):
        raise ValueError("axis lengths put the grid weights out of floating-point range")
    axes = [np.arange(c) * h for c, h in zip(cells, spacings)]
    mesh = np.meshgrid(*axes, indexing="ij")
    n = int(np.prod(cells))
    coords = np.zeros((n, 3))
    for k, ax in enumerate(mesh):
        coords[:, k] = ax.ravel()

    return DiscreteDomain(
        "flat_torus", coords, grid=(cells, lengths), dimension=dimension
    )


def load_off(path, dimension=None):
    """Read an ASCII OFF triangle mesh."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0].upper() != "OFF":
        raise AssemblyError(f"{path}: missing OFF header")
    pos = 1
    try:
        nv, nf = int(tokens[pos]), int(tokens[pos + 1])
        pos += 3  # vertex, face, edge counts
        coords = np.array(tokens[pos : pos + 3 * nv], dtype=float).reshape(nv, 3)
        pos += 3 * nv
        faces = np.empty((nf, 3), dtype=np.int64)
        for t in range(nf):
            k = int(tokens[pos])
            if k != 3:
                raise AssemblyError(f"{path}: face {t} has {k} vertices, only triangles supported")
            faces[t] = [int(tokens[pos + 1]), int(tokens[pos + 2]), int(tokens[pos + 3])]
            pos += 4
    except (IndexError, ValueError) as exc:
        if isinstance(exc, AssemblyError):
            raise
        raise AssemblyError(f"{path}: malformed OFF file ({exc})") from exc
    if nf and (faces.min() < 0 or faces.max() >= nv):
        raise AssemblyError(f"{path}: face index out of range")
    return DiscreteDomain("off", coords, faces=faces, dimension=dimension)


def _corner_cotangents(coords, faces):
    """Cotangent of the interior angle at each face corner, plus face areas."""
    v = [coords[faces[:, k]] for k in range(3)]
    with np.errstate(all="ignore"):
        double_area = np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0]), axis=1)
    # the norm sums the squares of a twice-area vector, so the mesh's scale
    # must keep the largest one finite and normal; zero and relatively
    # small faces are left to the degenerate-face test below
    largest = double_area.max() if len(double_area) else 1.0
    if not largest < _SQRT_MAX or 0.0 < largest < _SQRT_TINY:
        raise AssemblyError("face areas out of floating-point range")
    areas = 0.5 * double_area
    mean_area = areas.mean() if len(areas) else 0.0
    bad = np.flatnonzero(areas <= 1e-14 * mean_area)
    if bad.size:
        raise AssemblyError(f"degenerate face {int(bad[0])} (area {areas[bad[0]]:.3e})")
    cots = np.empty((len(faces), 3))
    for k in range(3):
        a, b, c = v[k], v[(k + 1) % 3], v[(k + 2) % 3]
        cots[:, k] = np.einsum("ij,ij->i", b - a, c - a) / double_area
    return cots, areas


def _assemble_surface(coords, faces):
    n = coords.shape[0]
    cots, areas = _corner_cotangents(coords, faces)
    rows, cols, data = [], [], []
    for k in range(3):
        # edge opposite corner k gets half its cotangent
        i, j = faces[:, (k + 1) % 3], faces[:, (k + 2) % 3]
        w = 0.5 * cots[:, k]
        rows.append(i)
        cols.append(j)
        data.append(-w)
        rows.append(j)
        cols.append(i)
        data.append(-w)
    off = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    stiffness = (off + sp.diags(-np.asarray(off.sum(axis=1)).ravel())).tocsr()
    mass = np.zeros(n)
    np.add.at(mass, faces.ravel(), np.repeat(areas / 3.0, 3))
    return stiffness, mass


def _assemble_grid(cells, lengths):
    spacings = [l / c for c, l in zip(cells, lengths)]
    volume = float(np.prod(spacings))
    n = int(np.prod(cells))
    idx = np.arange(n).reshape(cells)
    rows, cols, data = [], [], []
    for axis, h in enumerate(spacings):
        w = volume / (h * h)
        i = idx.ravel()
        j = np.roll(idx, -1, axis=axis).ravel()
        rows.append(i)
        cols.append(j)
        rows.append(j)
        cols.append(i)
        data.append(np.full(n, -w))
        data.append(np.full(n, -w))
    off = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    stiffness = (off + sp.diags(-np.asarray(off.sum(axis=1)).ravel())).tocsr()
    mass = np.full(n, volume)
    return stiffness, mass


def assemble_operators(domain):
    """Assemble (stiffness, lumped mass diagonal) for a domain."""
    if domain.is_surface:
        return _assemble_surface(domain.coordinates, domain.faces)
    return _assemble_grid(domain.grid_cells, domain.grid_lengths)


def mesh_quality(domain):
    """Count obtuse triangles and positive off-diagonal stiffness entries.

    A domain is M-matrix compatible when no off-diagonal entry of L
    exceeds 1e-12; the comparison principle (and hence the monotone
    iteration) is only trusted on compatible domains.
    """
    coo = domain.stiffness.tocoo()
    off = coo.row != coo.col
    positive = int(np.count_nonzero(coo.data[off] > 1e-12))
    obtuse = 0
    if domain.is_surface:
        cots, _ = _corner_cotangents(domain.coordinates, domain.faces)
        obtuse = int(np.count_nonzero(cots.min(axis=1) < 0.0))
    return MeshQualityReport(
        obtuse_triangle_count=obtuse,
        positive_offdiagonal_count=positive,
        is_m_matrix_compatible=positive == 0,
    )


def generalized_spectrum(domain, k):
    """Smallest k eigenvalues of L x = lambda M x, ascending.

    Deterministic: the iterative path uses a fixed seeded start vector.
    """
    k = int(k)
    n = domain.vertex_count
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k = {k} exceeds vertex count {n}")
    if n <= 400 or k >= n - 1:
        from scipy.linalg import eigh

        vals = eigh(
            domain.stiffness.toarray(),
            np.diag(domain.mass),
            eigvals_only=True,
        )
        return np.sort(vals)[:k]
    from scipy.sparse.linalg import eigsh

    # shift-invert around a small negative sigma: L + |sigma| M is SPD,
    # and the eigenvalues nearest sigma are exactly the smallest ones
    v0 = np.random.default_rng(0).standard_normal(n)
    vals = eigsh(
        domain.stiffness.tocsc(),
        k=k,
        M=sp.diags(domain.mass).tocsc(),
        sigma=-1e-2,
        v0=v0,
        return_eigenvectors=False,
    )
    return np.sort(vals)

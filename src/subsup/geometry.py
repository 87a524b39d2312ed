"""Discrete domains and their operators.

Two kinds of domain are supported: closed triangle surfaces (icospheres,
OFF files) and periodic grids in one to three axes.  Either way the
domain carries a stiffness matrix L (the discrete Dirichlet form,
symmetric positive semidefinite with L @ 1 = 0) and a lumped mass vector
m (the diagonal volume form).  Downstream modules never look at the
geometry again; L and m are the whole interface.

L is assembled once, straight into the layout it is applied through
(class SlotLayout): its off-diagonal entries as neighbour slots, its
diagonal as a vector.  scipy is imported only where it is used: the
scipy matrix built from L on access, OFF-mesh connectivity and the
spectrum.

On a large mesh the first touches of fresh arrays cost more than the
arithmetic, so the build makes few full-length passes and temporaries:
one sort of the face edges per icosphere level, the three edge vectors
of each face for its cotangents, and in-place sorts in the assembly.
Each level's temporaries die with _subdivide.  The pair-length arrays
are owned by the callee: a caller hands them on in a list, [keys, w]
to _edge_stiffness and [lo, hi, weights] to SlotLayout.of, keeps no
other reference, and the callee empties the list and frees each array
at its last use.

Surfaces use cotangent weights with barycentric mass lumping, grids the
standard second-order finite-difference stencil scaled so that u' L u
and u' M u approximate the Dirichlet energy and the volume integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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
# the largest icosphere's vertex count, also the largest flat torus
MAX_VERTICES = 10 * 4**MAX_SUBDIVISIONS + 2

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
        Vertex positions.  A surface stores them; a grid forms them on
        each access, embedded with axis k on coordinate k and unused
        coordinates zero, as only coefficient expressions and mesh-info
        read them.
    faces : (F, 3) int ndarray or None
        Triangles for surfaces, None for grids.
    grid_cells, grid_lengths : tuples or None
        Lattice description, grids only.
    L : SlotLayout
        The stiffness matrix; ``stiffness`` builds a scipy copy of it.
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

    def __init__(self, kind, coordinates=None, faces=None, grid=None, refinement=None):
        self.kind = str(kind)
        self.refinement = refinement
        self.faces = None
        self.grid_cells = None
        self.grid_lengths = None
        if faces is not None:
            self._coordinates = np.ascontiguousarray(coordinates, dtype=float)
            if self._coordinates.ndim != 2 or self._coordinates.shape[1] != 3:
                raise ValueError("coordinates must be an (N, 3) array")
            self.faces = np.ascontiguousarray(faces, dtype=np.int64)
            if self.faces.ndim != 2 or self.faces.shape[1] != 3:
                raise ValueError("faces must be an (F, 3) array")
            self.L, self.mass, self._obtuse_count = _assemble_surface(
                self._coordinates, self.faces
            )
        elif grid is not None:
            cells, lengths = grid
            self.grid_cells = tuple(int(c) for c in cells)
            self.grid_lengths = tuple(float(l) for l in lengths)
            self.L, self.mass = _assemble_grid(self.grid_cells, self.grid_lengths)
            self._obtuse_count = 0
        else:
            raise ValueError("domain needs faces or a grid description")

    @property
    def vertex_count(self):
        return self.mass.size

    @property
    def coordinates(self):
        if self.grid_cells is None:
            return self._coordinates
        axes = [np.arange(c) * (l / c) for c, l in zip(self.grid_cells, self.grid_lengths)]
        coords = np.zeros((self.vertex_count, 3))
        lattice = coords.reshape(*self.grid_cells, 3)
        for k, ax in enumerate(np.meshgrid(*axes, indexing="ij", sparse=True)):
            lattice[..., k] = ax
        return coords

    @property
    def is_surface(self):
        return self.faces is not None

    @property
    def stiffness(self):
        """L as a scipy CSR matrix, built from ``L`` on each access."""
        import scipy.sparse as sp

        L, n = self.L, self.vertex_count
        rows, columns = L.entries()
        index = np.arange(n)
        rows = np.concatenate([rows, index])
        columns = np.concatenate([columns, index])
        data = np.concatenate([L.weights, L.diagonal])
        stored = data != 0.0  # not the pads, nor the diagonal of an empty row
        return sp.csr_matrix(
            (data[stored], (rows[stored], columns[stored])), shape=(n, n)
        )

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
        # imported here: only OFF meshes need it, and csgraph costs ~0.1 s
        from scipy.sparse.csgraph import connected_components

        n_comp, _ = connected_components(self.stiffness, directed=False)
        return bool(n_comp == 1)

    def __repr__(self):
        return f"DiscreteDomain(kind={self.kind!r}, vertices={self.vertex_count})"


# _sorted_order sorts key << shift | position when that stays below this
_TAGGED_LIMIT = np.iinfo(np.int64).max


def _sorted_order(keys, bound):
    """np.sort(keys) and np.argsort(keys, kind="stable"), keys in [0, bound).

    One value sort of key << shift | position, 2**shift >= size, orders
    the keys the same way: the tagged values are distinct, and their
    SIMD quicksort is several times faster than a stable argsort, which
    is the fallback when they would overflow int64.  keys is int64 and
    is sorted in place: its buffer comes back as the order.
    """
    size = keys.size
    shift = max(size - 1, 0).bit_length()
    if int(bound) << shift > _TAGGED_LIMIT:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    tagged = keys
    tagged <<= shift
    tagged |= np.arange(size)
    tagged.sort()
    keys = tagged >> shift
    tagged &= (1 << shift) - 1
    return keys, tagged


def _run_heads(keys):
    """True where a run of equal values of the sorted keys starts."""
    head = np.empty(keys.size, dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return head


def _pair_keys(n, blocks):
    """The pairs {i, j}, i != j, of equal-length blocks (i, j) in turn,
    coded min * n + max for _edge_stiffness."""
    keys = np.empty((len(blocks), blocks[0][0].size), dtype=np.int64)
    for out, (i, j) in zip(keys, blocks):
        np.minimum(i, j, out=out)
        out *= n
        out += np.maximum(i, j)
    return keys.ravel()


def _edge_stiffness(n, pairs):
    """L = W - diag(W 1) for the symmetric W that sums the weights w over
    the pairs coded by keys (see _pair_keys), pairs = [keys, w].

    One sort by (min, max) brings the weights of each pair together;
    they are summed in input order, and a pair whose sum is exactly 0 is
    dropped.  The pairs come out in CSR order of the upper triangle,
    which SlotLayout.of takes.  The key buffer becomes the sort order.
    """
    keys, w = pairs
    pairs.clear()
    keys, order = _sorted_order(keys, n * n)
    w = w[order]
    del order
    start = np.flatnonzero(_run_heads(keys))
    weight = w[start]
    run = np.diff(start, append=keys.size)
    for k in range(1, run.max(initial=1)):
        np.add(weight, w.take(start + k, mode="clip"), out=weight, where=run > k)
    del w, run
    kept = weight != 0.0
    hi = keys[start[kept]]
    weight = weight[kept]
    del keys, start, kept
    lo = hi // n
    hi -= lo * n
    entries = [lo, hi, weight]
    del lo, hi, weight
    return SlotLayout.of(n, entries)


class SlotLayout(NamedTuple):
    """A symmetric matrix as neighbour slots plus its diagonal.

    The hybrid ELLPACK + COO format of Bell and Garland (SC 2009) for the
    off-diagonal entries.  Slot k of row i is the k-th off-diagonal entry
    of row i in CSR order.  A slot that at least half the rows fill is
    held as one length-N row of ``columns``, a row with fewer entries
    padded with itself at weight 0; the entries of the later slots,
    which only long rows have, are kept in CSR order in
    rest_rows/rest_columns and added by one ordered scatter after the
    fixed-width slots.  Pads never outnumber the entries, so the layout
    is O(nnz) at any valence.  ``weights`` holds the entries flat,
    fixed-width slots first (slot k of row i at k N + i), then the rest;
    ``diagonal`` is the length-N diagonal.  Indices are intp, which
    ndarray.take uses without a conversion.

    Each row's off-diagonal entries are summed in CSR order, product()
    starting from the diagonal term and edge_product() from 0.  A pad
    adds 0 v_i or 0 (v_i - v_i), +-0 either way, which changes no sum.
    """

    columns: np.ndarray
    rest_rows: np.ndarray
    rest_columns: np.ndarray
    weights: np.ndarray
    diagonal: np.ndarray

    @classmethod
    def of(cls, n, entries):
        """The symmetric matrix whose entries [lo, hi, weights], lo < hi,
        above the diagonal are listed in CSR order; its diagonal is minus
        each row's sum, taken in CSR order.  Empties the list."""
        lo, hi, weights = entries
        entries.clear()
        below = np.bincount(hi, minlength=n)
        above = np.bincount(lo, minlength=n)
        # filled[k] counts the rows with a slot k; non-increasing in k
        filled = np.cumsum(np.bincount(below + above)[::-1])[-2::-1]
        width = int(np.count_nonzero(2 * filled >= n))
        fixed = width * n
        # each entry's slot in either of its rows.  A row holds its entries
        # left of the diagonal, (hi, lo), first, in the order of lo, which
        # a stable sort by hi keeps; then its entries (lo, hi), listed in
        # the order of hi
        rows, by_row = _sorted_order(hi.copy(), n)
        upper = np.arange(lo.size)
        rank = (np.cumsum(below) - below).take(rows)
        del rows
        np.subtract(upper, rank, out=rank)
        lower = np.empty_like(rank)
        lower[by_row] = rank
        del rank, by_row
        upper -= (np.cumsum(above) - above - below).take(lo)
        # the entries past the fixed-width slots follow them in CSR order
        up, down = np.flatnonzero(upper >= width), np.flatnonzero(lower >= width)
        rest_rows = np.concatenate([lo[up], hi[down]])
        csr = np.lexsort((np.concatenate([upper[up], lower[down]]), rest_rows))
        rest_rows = rest_rows[csr]
        rest = np.empty_like(csr)
        rest[csr] = np.arange(fixed, fixed + csr.size)
        # each entry's index in the flat weights, slot * n + row
        upper *= n
        upper += lo
        upper[up] = rest[: up.size]
        lower *= n
        lower += hi
        lower[down] = rest[up.size :]
        del up, down, csr, rest
        # the columns, flat in the same way; a pad's column is its row
        index = np.empty(fixed + rest_rows.size, dtype=np.intp)
        index[:fixed].reshape(width, n)[:] = np.arange(n)
        index[upper] = hi
        index[lower] = lo
        del hi, lo
        flat_weights = np.zeros(index.size)
        flat_weights[upper] = weights
        flat_weights[lower] = weights
        del weights, upper, lower
        # minus each row's sum, taken as product() takes it: slot by
        # slot from 0, then the rest in order
        diagonal = np.zeros(n)
        for w in flat_weights[:fixed].reshape(width, n):
            diagonal += w
        np.add.at(diagonal, rest_rows, flat_weights[fixed:])
        np.negative(diagonal, out=diagonal)
        fixed_columns = index[:fixed].reshape(width, n)
        return cls(fixed_columns, rest_rows, index[fixed:], flat_weights, diagonal)

    def entries(self):
        """(rows, columns) of ``weights``, entry for entry, pads included."""
        rows = np.tile(np.arange(self.diagonal.size), len(self.columns))
        rows = np.concatenate([rows, self.rest_rows])
        return rows, np.concatenate([self.columns.ravel(), self.rest_columns])

    def dense(self, diagonal):
        """The matrix with these off-diagonal entries and ``diagonal``, dense."""
        out = np.diag(diagonal)
        np.add.at(out, self.entries(), self.weights)  # a pad adds 0 to its row's diagonal
        return out

    def product(self, values, diagonal):
        """M v for the matrix with these off-diagonal entries and ``diagonal``."""
        return self._sum(values, diagonal * values, False)

    def edge_product(self, values):
        """sum_j M_ij (v_j - v_i) over the off-diagonal entries.

        For L, that is L v: every term vanishes on constants, so the
        result is exactly 0 there and its roundoff follows the local
        variation of v rather than |L| |v|, and its sign survives at any
        mesh scale.
        """
        return self._sum(values, np.zeros(values.size), True)

    def _sum(self, values, out, edge):
        # slot k's weights are weights[k n:(k + 1) n]; a method call and a
        # slice per slot cost less than np.take's wrapper and a 2-D row
        n, weights = values.size, self.weights
        for k, columns in enumerate(self.columns):
            term = values.take(columns)
            if edge:
                term -= values
            term *= weights[k * n : (k + 1) * n]
            out += term
        if self.rest_rows.size:
            term = values.take(self.rest_columns)
            if edge:
                term -= values.take(self.rest_rows)
            term *= weights[self.columns.size :]
            # add.at is unbuffered: repeated rows accumulate in array order
            np.add.at(out, self.rest_rows, term)
        return out


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


def build_icosphere(subdivisions, radius=1.0):
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

    # each subdivision appends its midpoints after the vertices it refines
    verts = np.empty((10 * 4**subdivisions + 2, 3))
    count = len(_ICO_VERTICES)
    _normalized(_ICO_VERTICES, verts[:count])
    faces = _ICO_FACES
    refinement = []
    for _ in range(subdivisions):
        faces, parents = _subdivide(verts, count, faces)
        refinement.append((count, parents))
        count += len(parents)

    coords = verts
    coords *= radius
    try:
        return DiscreteDomain(
            "icosphere", coords, faces=faces, refinement=tuple(refinement)
        )
    except AssemblyError as exc:
        # the unit mesh assembles, so only the radius can break it
        raise ValueError(
            f"radius {radius:g} puts the face areas out of floating-point range"
        ) from exc


def _normalized(v, out):
    """The rows of v scaled to length 1, written to out."""
    np.divide(v, np.sqrt((v * v).sum(axis=1, keepdims=True)), out=out)


def _subdivide(verts, count, faces):
    """One subdivision of the faces on the first count vertices of verts:
    (refined faces, parents), the midpoints written after those vertices."""
    # the face edges (a, b), (b, c), (c, a) in creation order, as
    # pairs lo < hi coded lo * count + hi
    following = np.roll(faces, -1, axis=1)
    lo = np.minimum(faces, following).ravel()
    hi = np.maximum(faces, following, out=following).ravel()
    keys, order = _sorted_order(lo * count + hi, count * count)
    # the sort is stable, so each edge's run starts at its first
    # appearance, and the running count of first appearances numbers
    # the midpoints in creation order
    head = _run_heads(keys)
    del keys
    first = order[head]
    appears = np.zeros(head.size, dtype=bool)
    appears[first] = True
    number = np.cumsum(appears)
    number += count - 1
    run = np.cumsum(head)
    run -= 1
    # each face edge's midpoint: the number of its run's head
    mid = np.empty_like(number)
    mid[order] = number[first][run]
    del order, head, first, number, run
    split = np.flatnonzero(appears)
    parents = np.stack([lo[split], hi[split]], axis=1)
    del appears, split, lo, hi, following
    midpoints = np.take(verts, parents[:, 0], axis=0)
    midpoints += np.take(verts, parents[:, 1], axis=0)
    _normalized(midpoints, verts[count : count + len(parents)])
    del midpoints
    # face t becomes (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)
    mid = mid.reshape(-1, 3)
    refined = np.empty((len(faces), 4, 3), dtype=np.int64)
    refined[:, :3, 0] = faces
    refined[:, :3, 1] = mid
    refined[:, 0, 2] = mid[:, 2]
    refined[:, 1:3, 2] = mid[:, :2]
    refined[:, 3] = mid
    return refined.reshape(-1, 3), parents


def _coarse_mesh(coordinates, faces, coarse_count):
    """The icosphere one subdivision below (coordinates, faces).

    Its vertices are the first coarse_count ones, and its face t is made
    of the first corners of faces 4t, 4t + 1 and 4t + 2, which are its
    corners a, b and c under _subdivide's numbering.
    """
    return coordinates[:coarse_count], faces.reshape(-1, 4, 3)[:, :3, 0]


def build_flat_torus(dims):
    """Periodic grid from [(cells, length), ...] with 1 to 3 axes.

    At most MAX_VERTICES vertices, refused before any allocation.
    """
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
    # counted in Python ints: np.prod of [10**7] * 3 overflows int64
    n = math.prod(cells)
    if n > MAX_VERTICES:
        raise ValueError(f"flat torus of {n} vertices exceeds the limit of {MAX_VERTICES}")
    return DiscreteDomain("flat_torus", grid=(cells, lengths))


def load_off(path):
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
    bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
    if bad.size:
        raise AssemblyError(f"{path}: vertex {int(bad[0])} has a non-finite coordinate")
    if not nf:
        raise AssemblyError(f"{path}: no faces")
    if faces.min() < 0 or faces.max() >= nv:
        raise AssemblyError(f"{path}: face index out of range")
    return DiscreteDomain("off", coords, faces=faces)


def _corner_cotangents(coords, faces):
    """Cotangent of the interior angle at each face corner, plus face areas.

    The cotangents come as a (3, F) array, row k for corner k.  Each is
    formed from the three edges of its face, E_k from corner k + 1 to
    corner k + 2: corner k lies between E_{k+2} and -E_{k+1}, so its
    cotangent is -E_{k+1}.E_{k+2} / |E_1 x E_2|.  Negation and the order
    of a product's factors are exact, so this gives every nonzero value
    bit for bit as the dot and cross products of the differences from
    the corner would.
    """
    # rows: corners 0, 1, 2, overwritten by E_0, E_2, E_1 in turn
    edges = np.take(coords, faces.T, axis=0)
    e0, e2, e1 = edges
    corner = e0.copy()
    np.subtract(e1, e2, out=e0)
    np.subtract(corner, e1, out=e1)
    np.subtract(e2, corner, out=e2)
    # the twice-area vector E_1 x E_2, in corner's place, as np.cross
    # forms it, then its norm
    normal, term = corner, np.empty(len(faces))
    with np.errstate(all="ignore"):
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            np.multiply(e1[:, i], e2[:, j], out=normal[:, k])
            np.multiply(e1[:, j], e2[:, i], out=term)
            normal[:, k] -= term
        normal *= normal
        double_area = np.sqrt(normal.sum(axis=1))
    del term
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
    # the cotangents take the place of the twice-area vectors
    cots = normal.reshape(3, len(faces))
    for k, (a, b) in enumerate([(e1, e2), (e2, e0), (e0, e1)]):
        np.einsum("ij,ij->i", a, b, out=cots[k])
    cots /= double_area
    np.negative(cots, out=cots)
    return cots, areas


def _assemble_surface(coords, faces):
    """(L, mass, obtuse triangle count) of a triangle surface."""
    n = coords.shape[0]
    used = np.zeros(n, dtype=bool)
    used[faces] = True
    unused = np.flatnonzero(~used)
    if unused.size:
        # it would get no stiffness entry and mass 0
        raise AssemblyError(f"vertex {int(unused[0])} belongs to no face")
    cots, areas = _corner_cotangents(coords, faces)
    obtuse = int(np.count_nonzero(cots.min(axis=0) < 0.0))
    # bincount adds in index order, face by face, as np.add.at would
    mass = np.bincount(faces.ravel(), np.repeat(areas / 3.0, 3), minlength=n)
    del areas
    # the edge opposite corner k joins corners k + 1 and k + 2 and gets
    # half the corner's cotangent
    cots *= -0.5
    c = faces.T
    pairs = [
        _pair_keys(n, [(c[(k + 1) % 3], c[(k + 2) % 3]) for k in range(3)]),
        cots.ravel(),
    ]
    del cots
    return _edge_stiffness(n, pairs), mass, obtuse


def _assemble_grid(cells, lengths):
    """(L, mass) of a periodic grid; its weights, volume / h^2, are
    range-checked before any full-length array is made."""
    spacings = [l / c for c, l in zip(cells, lengths)]
    with np.errstate(all="ignore"):
        volume = float(np.prod(spacings))
        weights = volume / np.square(spacings)
    if not np.all((weights > 0.0) & (weights < np.inf)):
        raise ValueError("axis lengths put the grid weights out of floating-point range")
    n = int(np.prod(cells))
    idx = np.arange(n).reshape(cells)
    # each vertex with its successor along each axis
    pairs = [
        _pair_keys(
            n, [(idx.ravel(), np.roll(idx, -1, axis=k).ravel()) for k in range(len(cells))]
        ),
        np.repeat([-w for w in weights], n),
    ]
    del idx
    return _edge_stiffness(n, pairs), np.full(n, volume)


def mesh_quality(domain):
    """Count obtuse triangles and positive off-diagonal stiffness entries.

    A domain is M-matrix compatible when no off-diagonal entry of L
    exceeds 1e-12; the comparison principle (and hence the monotone
    iteration) is only trusted on compatible domains.
    """
    # the pads of the layout are 0 and never count
    positive = int(np.count_nonzero(domain.L.weights > 1e-12))
    return MeshQualityReport(
        obtuse_triangle_count=domain._obtuse_count,
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

        L = domain.L
        vals = eigh(L.dense(L.diagonal), np.diag(domain.mass), eigvals_only=True)
        return np.sort(vals)[:k]
    import scipy.sparse as sp
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

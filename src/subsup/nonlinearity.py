"""The substitution operator S and the growth-hypothesis checkers.

S maps a candidate solution v to the dual vector of f*F(v) + h*H(v),
a Field whose entry i is its value on the nodal hat at vertex i;
it is bounded, non-decreasing and continuous as long as F and H are
monotone, which is all the monotone iteration needs.  check_alpha1 and
check_alpha2 validate the growth conditions on (F, H) and the sign
conditions on (a, f, h), and report the first violation instead of
raising.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .geometry import Field
from .linear_operator import LinearProblem

# past 1e18, t^p overflows within a few ulp above t = 1, and no float
# t > 1 shows a power law's growth to the alpha1 check
MAX_EXPONENT = 1e18


def critical_exponent(n):
    """2n/(n-2), the growth threshold; defined for n >= 3."""
    n = int(n)
    if n < 3:
        raise ValueError(f"critical exponent needs n >= 3, got n = {n}")
    return 2.0 * n / (n - 2.0)


class ScalarNonlinearity:
    """Entrywise monotone nonlinearity: a power law or an interpolated table.

    Power laws are t**p on t >= 0 and zero below.  Tables interpolate
    linearly between strictly increasing abscissae and extend with
    constant values; with ``truncate`` (the default) they also vanish on
    t < 0.  Non-truncating tables exist only so the hypothesis checker
    has something to reject.  A table forms its segment slopes once, as
    ``slopes``; a power law has None.
    """

    def __init__(self, kind, p=None, ts=None, values=None, truncate=True):
        self.kind = kind
        self.truncate = bool(truncate)
        if kind == "power":
            self.p = float(p)
            if not 0.0 < self.p <= MAX_EXPONENT:
                raise ValueError(f"power exponent must lie in (0, 1e18], got {self.p:g}")
            self.ts = self.values = self.slopes = None
        elif kind == "table":
            self.p = None
            self.ts = np.asarray(ts, dtype=float)
            self.values = np.asarray(values, dtype=float)
            if self.ts.ndim != 1 or self.ts.shape != self.values.shape:
                raise ValueError("table needs matching 1-d t and value columns")
            if self.ts.size < 2:
                raise ValueError("table needs at least two rows")
            # neighbours compared, not subtracted: a difference may overflow
            if not np.all(self.ts[1:] > self.ts[:-1]):
                raise ValueError("table t column must be strictly increasing")
            if not np.all(np.isfinite(self.ts)) or not np.all(np.isfinite(self.values)):
                raise ValueError("table contains non-finite entries")
            if np.any(self.values[1:] < self.values[:-1]):
                raise ValueError("table values must be non-decreasing")
            # segment j's slope; one that has no float overflows to inf
            with np.errstate(over="ignore"):
                self.slopes = np.diff(self.values) / np.diff(self.ts)
        else:
            raise ValueError(f"unknown nonlinearity kind '{kind}'")

    @classmethod
    def power(cls, p):
        return cls("power", p=p)

    @classmethod
    def table(cls, ts, values, truncate=True):
        return cls("table", ts=ts, values=values, truncate=truncate)

    @classmethod
    def from_csv(cls, path):
        """A truncating table from a 't,value' CSV; each data row holds two numbers."""
        ts, values = [], []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != ["t", "value"]:
                raise ValueError(f"{path}: expected CSV header 't,value'")
            for row in reader:
                if not row or not "".join(row).strip():
                    continue
                try:
                    t, value = map(float, row)
                except ValueError:
                    raise ValueError(
                        f"{path}, line {reader.line_num}: expected two numbers "
                        f"'t,value', got {','.join(row)!r}"
                    ) from None
                ts.append(t)
                values.append(value)
        return cls("table", ts=ts, values=values)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if self.kind == "power":
            # np.maximum(-0.0, 0.0) is +0.0, so no output is -0.0
            out = np.maximum(t, 0.0) ** self.p
        else:
            out = np.interp(t, self.ts, self.values)
            # np.interp overflows to inf inside a segment whose slope has
            # no float; there the value is the ends' convex combination
            steep = np.isinf(out)
            if steep.any():
                j = np.searchsorted(self.ts, t[steep]) - 1
                w = (t[steep] - self.ts[j]) / (self.ts[j + 1] - self.ts[j])
                out[steep] = (1.0 - w) * self.values[j] + w * self.values[j + 1]
            if self.truncate:
                out = np.where(t < 0.0, 0.0, out)
        return float(out[0]) if scalar else out

    def max_slope(self, lo, hi):
        """Largest one-sided derivative on [lo, hi], entrywise, 0 <= lo <= hi.

        It bounds |F(s) - F(t)| / |s - t| for all s, t in the interval.
        Power laws take it at an end (lo for p < 1, where it is inf at 0;
        hi otherwise); tables take the steepest segment that touches the
        interval, the constant extensions counting as slope 0.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if self.kind == "power":
            return self._power_slope(hi if self.p >= 1.0 else lo)
        return self._touched_slopes(lo, hi, np.maximum, 0.0)

    def min_slope(self, lo, hi):
        """Least one-sided derivative on [lo, hi], entrywise, 0 <= lo <= hi.

        The mirror of max_slope: it is at most (F(s) - F(t)) / (s - t) for
        all s != t in the interval.  Power laws take it at an end (lo for
        p >= 1; hi for p < 1, where it is inf at hi = 0); tables take the
        flattest segment that touches the interval, and 0 where the
        interval reaches into a constant extension.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if self.kind == "power":
            return self._power_slope(lo if self.p >= 1.0 else hi)
        out = self._touched_slopes(lo, hi, np.minimum, np.inf)
        return np.where((lo < self.ts[0]) | (hi > self.ts[-1]), 0.0, out)

    def _power_slope(self, t):
        """p t^(p - 1), the power law's derivative at t; inf at 0 for p < 1."""
        with np.errstate(divide="ignore"):
            slope = t ** (self.p - 1.0)
            slope *= self.p
        return slope

    def _touched_slopes(self, lo, hi, pick, start):
        """pick-reduction of start and the table's segment slopes touching [lo, hi]."""
        # segment j spans [ts[j], ts[j+1]]; first..last touch [lo, hi]
        first = np.searchsorted(self.ts[1:], lo, side="left")
        last = np.searchsorted(self.ts[:-1], hi, side="right") - 1
        out = np.full(np.broadcast(lo, hi).shape, start)
        touched = first <= last
        for offset in range(int(np.max(last - first, initial=-1)) + 1):
            j = np.clip(np.minimum(first + offset, last), 0, self.slopes.size - 1)
            out = np.where(touched, pick(out, self.slopes[j]), out)
        return out


class NonlinearProblem:
    """Coefficients (a, f, h), nonlinearities (F, H) and declared n.

    Stored permissively so the hypothesis checkers can report on bad
    instances; the iteration driver is the gatekeeper.
    """

    def __init__(self, domain, a, f, h, F, H, n, q=None):
        self.domain = domain
        self.a = domain.field(a)
        self.f = domain.field(f)
        self.h = domain.field(h)
        self.F = F
        self.H = H
        self.n = int(n)
        if q is not None:
            self.q = float(q)
        elif H.kind == "power":
            self.q = H.p
        else:
            self.q = None
        self._linear = None

    @property
    def linear(self):
        """The LinearProblem for a; raises unless min a > 0."""
        if self._linear is None:
            self._linear = LinearProblem(self.domain, self.a)
        return self._linear


@dataclass
class Alpha1Report:
    passed: bool
    clause: str | None = None
    t: float | None = None
    value: float | None = None
    bound: float | None = None
    warnings: list = dataclass_field(default_factory=list)


@dataclass
class Alpha2Report:
    passed: bool
    clause: str | None = None
    vertex: int | None = None


def _finite_limit(e):
    """The largest t <= max_float^(1/e) at which t**e is finite."""
    with np.errstate(over="ignore"):
        t = np.finfo(float).max ** (1.0 / e)
        while np.isinf(t ** e):
            t = np.nextafter(t, 0.0)
    return t


def _peak_points(G, b, t_max):
    """The points of [-1, t_max] that decide G's clauses against t^b.

    On [-1, 0) G must vanish.  A power law does; a table is linear
    between its breakpoints, so it vanishes there if it does at -1, at
    the largest double below 0 and at its breakpoints.  On t >= 0,
    G - t^b peaks at 0, at t_max or at one of these: a table's
    breakpoints, and for b > 1, where G - t^b is concave on each segment,
    the point inside where the slopes meet, t = (slope/b)^(1/(b-1)); a
    power law t^p's one critical point (b/p)^(1/(p-b)).  A power law is
    checked only as far as t^p and t^b are finite: beyond that point
    t^p - t^b keeps its sign.
    """
    points = [[-1.0, np.nextafter(0.0, -1.0), 0.0]]
    if G.kind == "power":
        t_max = min(t_max, _finite_limit(max(G.p, b)))
        if G.p != b:
            points.append([(b / G.p) ** (1.0 / (G.p - b))])
    else:
        points.append(G.ts)
        if b > 1.0:
            with np.errstate(over="ignore"):  # an inf point lies past t_max
                points.append((np.maximum(G.slopes, 0.0) / b) ** (1.0 / (b - 1.0)))
    points.append([t_max])
    # np.sort, not np.unique, which imports numpy.ma (~20 ms); a point
    # checked twice gives the same verdict
    ts = np.sort(np.concatenate(points))
    return ts[(ts >= -1.0) & (ts <= t_max)]


def _first_violation(G, name, b, bound_name, t_max):
    """(t, clause, value, bound) at the lowest peak point where G breaks
    a clause against the bound t^b, or None."""
    ts = _peak_points(G, b, t_max)
    values = G(ts)
    # slack keeps the equality case F = power(2*-1) from tripping on
    # rounding; an allowance that overflows exceeds every finite value
    with np.errstate(over="ignore"):
        bounds = np.maximum(ts, 0.0) ** b
        allowed = bounds + 1e-12 * (bounds + 1.0)
    negative = ts < 0.0
    broken = np.where(negative, values != 0.0, (values < 0.0) | (values > allowed))
    if not broken.any():
        return None
    i = int(np.argmax(broken))
    if negative[i]:
        return ts[i], f"{name}(t) = 0 for t < 0", values[i], 0.0
    if values[i] < 0.0:
        return ts[i], f"0 <= {name}(t)", values[i], 0.0
    return ts[i], f"{name}(t) <= {bound_name}", values[i], bounds[i]


def check_alpha1(F, H, n, q, t_max):
    """Check the growth bounds 0 <= F <= t^(2*-1), 0 <= H <= t^q on
    [-1, t_max] and the vanishing clause on t < 0.

    Each of F and H is checked exactly, at the points where it minus its
    bound can peak (see _peak_points), so between them no clause fails
    that holds at them.  Returns a report naming the first violated
    clause at the lowest such point, F's before H's.  q >= 1 is legal for
    the bound but outside the sublinear range the power-law instance
    uses, so it is flagged as a warning rather than rejected.
    """
    if q is None:  # a table H whose problem was given no q
        raise ValueError("q is None: a table H needs its growth exponent q")
    q = float(q)
    t_max = float(t_max)
    p_crit = critical_exponent(n) - 1.0
    if not 0.0 < q < p_crit:
        raise ValueError(f"q must satisfy 0 < q < {p_crit:g}, got q = {q:g}")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    warnings = []
    if q >= 1.0:
        warnings.append(
            f"q = {q:g} is >= 1; the sublinear range 0 < q < 1 is the usual "
            f"setting, continuing with the bound q < {p_crit:g}"
        )
    found = [
        v
        for v in (
            _first_violation(F, "F", p_crit, "t^(2*-1)", t_max),
            _first_violation(H, "H", q, "t^q", t_max),
        )
        if v is not None
    ]
    if not found:
        return Alpha1Report(passed=True, warnings=warnings)
    # min keeps the first of equal points, so F's clauses come before H's
    t, clause, value, bound = min(found, key=lambda v: v[0])
    return Alpha1Report(False, clause, float(t), float(value), float(bound), warnings)


def check_alpha2(problem):
    """min a > 0, f >= 0 not identically 0, h >= 0 not identically 0."""
    a = problem.a.values
    if a.min() <= 0.0:
        return Alpha2Report(False, "a > 0", int(np.flatnonzero(a <= 0.0)[0]))
    for name, values in (("f", problem.f.values), ("h", problem.h.values)):
        if values.min() < 0.0:
            return Alpha2Report(
                False, f"{name} >= 0", int(np.flatnonzero(values < 0.0)[0])
            )
        if values.max() <= 0.0:
            return Alpha2Report(False, f"{name} != 0", None)
    return Alpha2Report(True)


def apply_S(problem, v):
    """The dual vector of f F(v) + h H(v), a Field, for an array v of length N.

    v is clamped at 0 first, so apply_S(v) == apply_S(max(v, 0)) holds
    exactly.  Raises ValueError for any other length, which would
    broadcast, and where F or H overflows, as the Field is finite.
    """
    vp = np.maximum(v, 0.0)
    if vp.shape != problem.f.values.shape:
        raise ValueError(f"v has shape {vp.shape}, expected {problem.f.values.shape}")
    rhs = problem.f.values * problem.F(vp)
    rhs += problem.h.values * problem.H(vp)
    rhs *= problem.domain.mass
    return Field(problem.domain, rhs)

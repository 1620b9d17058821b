"""Adaptive one-dimensional quadrature on a 15-point Gauss-Kronrod rule.

integrate_finite integrates over a finite interval with globally adaptive
bisection, and integrate_lockstep runs many such integrals side by side.
integrate_semi_infinite and integrate_sqrt_singularity hand
integrate_finite the range [a, T] up to a truncation point T beyond which
an exponentially decaying integrand is negligible; truncation_points
finds these points for lockstep integrands too.  Any substitution that
resolves a boundary layer, such as w = c sinh(u) or t = sqrt(x^2 + s^2),
is applied by the caller, which knows its scale.

Every integrand takes a 1-D ndarray of nodes and returns an ndarray of
the same shape; a callable that only accepts scalars raises on its first
panel.  Results are deterministic: identical inputs produce bit-identical
outputs.

There is one adaptive loop per call shape.  integrate_finite runs one
integral: it bisects the panel of largest error estimate, the leftmost of
equals, evaluates both halves in one call of f, and stops when math.fsum of
the estimates meets the tolerance.  integrate_lockstep runs k independent
integrals in lockstep rounds: each unconverged integral keeps its own
panels, tolerance test and limits, bisects its own worst panel, and the
halves of all of them go to the integrand in one call, with an array saying
which integral each node belongs to.  Its panels sit in (k x capacity)
arrays, so a round's bookkeeping is a few numpy calls instead of a Python
loop over the integrals; a batch of one integral runs integrate_finite's
loop.  Integrands that share one kernel, such as the mode weights, run
this way, each integral with its own end points.

Each lockstep row equals integrate_finite on its integral alone, bit for
bit, errors included.  np.vecdot takes each panel row's sums with the same
dot product as for a panel evaluated alone; a matrix product over all rows
sums in another order and changes the last bits.  A row counts unconverged
without fsum only where a bound on the rounding of the numpy sums proves
fsum would; every other row gets the exact fsum test, and fsum is correctly
rounded, so the order of a row's panels does not matter.  The worst panel
of a row is the one of largest error with the smallest lower end, the one
integrate_finite finds first.  A round tests its rows in index order, and
the first row unconverged at its depth or panel limit raises.
A panel whose integrand values, Kronrod value or error estimate are not
finite raises QuadratureError naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "integrate_finite",
    "integrate_lockstep",
    "integrate_semi_infinite",
    "integrate_sqrt_singularity",
    "truncation_points",
]

# Kronrod-15 abscissae on [-1, 1]; odd entries are the embedded Gauss-7 nodes.
_XK = np.array([
    -0.9914553711208126392069,
    -0.9491079123427585245262,
    -0.8648644233597690727897,
    -0.7415311855993944398639,
    -0.5860872354676911302941,
    -0.4058451513773971669066,
    -0.2077849550078984676007,
    0.0,
    0.2077849550078984676007,
    0.4058451513773971669066,
    0.5860872354676911302941,
    0.7415311855993944398639,
    0.8648644233597690727897,
    0.9491079123427585245262,
    0.9914553711208126392069,
])
_WK = np.array([
    0.0229353220105292249637,
    0.0630920926299785532907,
    0.1047900103222501838399,
    0.1406532597155259187452,
    0.1690047266392679028266,
    0.1903505780647854099133,
    0.2044329400752988924142,
    0.2094821410847278280130,
    0.2044329400752988924142,
    0.1903505780647854099133,
    0.1690047266392679028266,
    0.1406532597155259187452,
    0.1047900103222501838399,
    0.0630920926299785532907,
    0.0229353220105292249637,
])
_WG = np.array([
    0.1294849661688696932706,
    0.2797053914892766679015,
    0.3818300505051189449504,
    0.4179591836734693877551,
    0.3818300505051189449504,
    0.2797053914892766679015,
    0.1294849661688696932706,
])

_MAX_DEPTH = 60
_MAX_PANELS = 20000


class QuadratureError(RuntimeError):
    """Raised when the adaptive scheme cannot reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the adaptive quadrature."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")


DEFAULT_SPEC = QuadratureSpec()


def _estimates(f, owners, los, his):
    """Gauss-Kronrod values and error estimates of the panels [los[j], his[j]]
    of the integrals owners[j] from one call of f, as two arrays, each entry
    bit-identical to its panel evaluated alone: np.vecdot sums each row with
    the same dot product.  A non-finite integrand value, or a value or error
    estimate that overflows the doubles, raises QuadratureError naming the
    first such panel.
    """
    if not len(owners):
        return np.empty(0), np.empty(0)
    lo, hi = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * _XK).ravel()
    y = np.asarray(f(nodes, np.asarray(owners).repeat(_XK.size)), dtype=float)
    if y.shape != nodes.shape:
        raise ValueError(f"integrand returned shape {y.shape} for {nodes.shape} nodes")
    y = y.reshape(len(owners), _XK.size)
    if not np.isfinite(y).all():
        j = int(np.argmin(np.isfinite(y).all(axis=1)))
        raise QuadratureError(f"non-finite integrand value in panel [{lo[j]}, {hi[j]}]")
    with np.errstate(over="ignore", invalid="ignore"):
        k15 = half * np.vecdot(y, _WK)
        err = np.abs(k15 - half * np.vecdot(y[:, 1::2], _WG))
    finite = np.isfinite(err)  # err is NaN or inf wherever k15 is
    if not finite.all():
        j = int(np.argmin(finite))
        raise QuadratureError(f"non-finite value or error estimate in panel [{lo[j]}, {hi[j]}]")
    return k15, err


def _exhausted(pa: float, pb: float, depth: int, panels: int, perr: float, tol: float):
    """The QuadratureError of a worst panel past its limits, or None."""
    if depth >= _MAX_DEPTH:
        return QuadratureError(f"adaptive depth exhausted on panel [{pa}, {pb}] "
                               f"(error estimate {perr:.3e}, requested {tol:.3e})")
    if panels >= _MAX_PANELS:
        return QuadratureError(f"panel budget exhausted; worst panel [{pa}, {pb}] "
                               f"error {perr:.3e}")
    return None


def _bounds(a, b) -> tuple[list[float], list[float]]:
    """a and b as float lists; ValueError unless equal in length, finite and a <= b."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if len(a) != len(b):
        raise ValueError(f"{len(a)} lower and {len(b)} upper integration bounds")
    if not all(map(math.isfinite, a + b)):
        raise ValueError("integration bounds must be finite")
    if any(lo > hi for lo, hi in zip(a, b)):
        raise ValueError("integration bounds must satisfy a <= b")
    return a, b


def _one(f):
    """A node-array integrand f(nodes) as the integrand of a single lockstep integral."""
    return lambda nodes, owners: f(nodes)


def integrate_finite(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate f over [a, b] to max(abs_tol, rel_tol*|I|).

    Globally adaptive: the panel of largest error estimate (the leftmost
    of equals) is bisected until the summed estimate meets the tolerance.
    Raises ValueError for non-finite or reversed bounds, and
    QuadratureError when the worst panel has had _MAX_DEPTH bisections or
    the budget is spent.
    """
    (a,), (b,) = _bounds([a], [b])
    return _adaptive(_one(f), a, b, spec)


def _adaptive(f, a: float, b: float, spec: QuadratureSpec) -> float:
    """integrate_finite's loop, for a lockstep integrand f(nodes, owners) of one integral."""
    if a == b:
        return 0.0
    # panel j is [los[j], his[j]], bisected deps[j] times, with Kronrod
    # value vals[j] and error estimate errs[j]
    los, his, deps = [a], [b], [0]
    vals, errs = (est.tolist() for est in _estimates(f, (0,), los, his))
    while True:
        total = math.fsum(vals)
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if math.fsum(errs) <= tol:
            return total
        perr = max(errs)
        worst = errs.index(perr)
        pa, pb, depth = los[worst], his[worst], deps[worst]
        error = _exhausted(pa, pb, depth, len(errs), perr, tol)
        if error is not None:
            raise error
        pm = 0.5 * (pa + pb)
        new_vals, new_errs = _estimates(f, (0, 0), [pa, pm], [pm, pb])
        los[worst:worst + 1] = pa, pm
        his[worst:worst + 1] = pm, pb
        vals[worst:worst + 1] = new_vals.tolist()
        errs[worst:worst + 1] = new_errs.tolist()
        deps[worst:worst + 1] = depth + 1, depth + 1


def integrate_lockstep(f, a, b, spec: QuadratureSpec = DEFAULT_SPEC) -> list[float]:
    """Integrate k integrands over [a[i], b[i]], each to max(abs_tol, rel_tol*|I_i|).

    f(nodes, owners) takes a 1-D node array and the index of the integral
    each node belongs to, and returns the integrand values at the nodes.
    The integrals advance in lockstep, each round evaluating the bisected
    panels of all unconverged ones in one call of f.  Result i is
    integrate_finite's on integral i alone.  In the first round where an
    integral is unconverged at its depth or panel limit, the lowest-index
    such integral raises the QuadratureError it raises alone.  Raises
    ValueError for bounds of unequal lengths, non-finite or reversed.
    """
    a, b = _bounds(a, b)
    if len(a) == 1:
        return [_adaptive(f, a[0], b[0], spec)]
    results = [0.0] * len(a)
    # row r holds the panels of integral ids[r] in its first cnt[r] columns,
    # in no particular order, and zeros after them; p[r, j] = (lo, hi,
    # Kronrod value, error estimate, bisections) of a panel
    ids = np.array([i for i in range(len(a)) if a[i] != b[i]], dtype=np.int64)
    p = np.zeros((ids.size, 8, 5))
    p[:, 0, :2] = np.column_stack((a, b))[ids]
    p[:, 0, 2], p[:, 0, 3] = _estimates(f, ids, p[:, 0, 0], p[:, 0, 1])
    cnt = np.ones(ids.size, dtype=np.int64)
    while ids.size:
        lo, val, err = p[:, :, 0], p[:, :, 2], p[:, :, 3]
        unconverged = _proven_unconverged(val, err, spec)
        # the leftmost panel of largest error is the one of smallest lo (a
        # panel that shares its lo with another has zero width and no error)
        worst = np.where(err == err.max(axis=1, keepdims=True), lo, np.inf).argmin(axis=1)
        w = p[np.arange(ids.size), worst]
        limit = (w[:, 4] >= _MAX_DEPTH) | (cnt >= _MAX_PANELS)
        # in row order, the exact fsum test for each row that the numpy sums
        # leave open or that is at its limit; the first unconverged one there raises
        for r in np.flatnonzero(~unconverged | limit).tolist():
            total = math.fsum(val[r, :cnt[r]].tolist())
            tol = max(spec.abs_tol, spec.rel_tol * abs(total))
            if math.fsum(err[r, :cnt[r]].tolist()) <= tol:
                results[ids[r]] = total
            elif limit[r]:
                pa, pb, _, perr, depth = w[r].tolist()
                raise _exhausted(pa, pb, int(depth), int(cnt[r]), perr, tol)
            else:
                unconverged[r] = True
        if not unconverged.all():
            keep = np.flatnonzero(unconverged)
            if not keep.size:
                return results
            ids, p, cnt, worst, w = ids[keep], p[keep], cnt[keep], worst[keep], w[keep]
        # the halves of each worst panel: the left one replaces it, the
        # right one is appended
        halves = np.empty((ids.size, 2, 5))
        halves[:, 0, 0], halves[:, 1, 1] = w[:, 0], w[:, 1]
        halves[:, 0, 1] = halves[:, 1, 0] = 0.5 * (w[:, 0] + w[:, 1])
        estimates = _estimates(f, ids.repeat(2), halves[:, :, 0].ravel(), halves[:, :, 1].ravel())
        halves[:, :, 2], halves[:, :, 3] = (est.reshape(-1, 2) for est in estimates)
        halves[:, :, 4] = w[:, 4:] + 1.0
        if int(cnt.max()) == p.shape[1]:
            p = np.concatenate((p, np.zeros_like(p)), axis=1)
        rows = np.arange(ids.size)
        p[rows, worst] = halves[:, 0]
        p[rows, cnt] = halves[:, 1]
        cnt += 1
    return results


def _proven_unconverged(val, err, spec: QuadratureSpec):
    """Rows where the numpy sums prove fsum(err) > max(abs_tol, rel_tol*|fsum(val)|).

    Summed in any order, n terms carry a rounding error of at most
    (n - 1) 2^-53 times the sum of their magnitudes; r exceeds that with
    room for the few roundings of the test itself and 2^-1060 covers
    results in the subnormal range.  Rows whose sums come near overflow
    are left to fsum, which raises there.
    """
    r = (val.shape[1] + 8) * 2.0 ** -52
    total, size, error = val.sum(axis=1), np.abs(val).sum(axis=1), err.sum(axis=1)
    bound = (np.maximum(spec.abs_tol, spec.rel_tol * (np.abs(total) + r * size)) * (1.0 + 2.0 * r)
             + 2.0 ** -1060)
    return (error * (1.0 - 2.0 * r) > bound) & (size < 1e300) & (error < 1e300)


def truncation_points(f, starts, spec: QuadratureSpec) -> list[float]:
    """Per integral i of a lockstep integrand f(nodes, owners), a point T beyond
    starts[i] so that an e^{-t} tail beyond it is below abs_tol/10."""
    starts = np.asarray(starts, dtype=float)
    probes = starts[:, None] + np.array([0.25, 1.0, 2.0])
    owners = np.arange(starts.size).repeat(3)
    mags = np.abs(f(probes.ravel(), owners)).reshape(probes.shape)
    return [start + max(10.0, math.log(10.0 * (float(np.max(m)) + spec.abs_tol) / spec.abs_tol))
            for start, m in zip(starts.tolist(), mags)]


def integrate_semi_infinite(f, a: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate f, decaying at least like e^{-t}, over [a, infinity).

    The range is truncated at T = a + max(10, log(10*range/abs_tol)), with
    the range magnitude estimated from f at three probe points, then handed
    to integrate_finite.
    """
    T = truncation_points(_one(f), [a], spec)[0]
    return integrate_finite(f, a, T, spec)


def integrate_sqrt_singularity(g, x_abs: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate g over (0, infinity) after a square-root substitution.

    The caller has already substituted t = sqrt(x^2 + s^2), so g(s) is
    regular at s = 0.  x_abs shifts the truncation point outward: in the
    substituted variable the exponential decay only sets in for s beyond
    roughly x_abs.
    """
    if x_abs < 0.0:
        raise ValueError("x_abs must be >= 0")
    return integrate_finite(g, 0.0, truncation_points(_one(g), [x_abs], spec)[0], spec)

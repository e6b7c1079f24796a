"""Quadrature and Monte Carlo primitives.

All deterministic integration goes through an adaptive Gauss-Kronrod (G7/K15)
rule on finite intervals; improper radial integrals are mapped to [0,1) by
r = s/(1-s) first and truncated at a cutoff radius that every caller passes
in, together with its own bound on the tail beyond it.  An integrand returns
an (n, k) stack of k components, or n values as a stack of one: the
components share every abscissa and one subdivision, each meets its own
tolerance, and every integrator returns one float ``Estimate`` per
component, in a ``Columns`` list.  Full-space integrals
over R^d (d <= 3) against a radial density are reduced to a radial integral
of an angular rule whose order each radial panel chooses from 8 to 128: a
pair of orders N and N/2 (nested trapezoid rules on the circle, and on S^2
their product with Gauss-Legendre rules in cos(theta)) estimates the angular
error, the order doubles while that estimate exceeds the panel's share of
the budget, and the estimate joins the bound.  The density is a weight
applied once per radius, not once per point.  Monte Carlo draws use
numpy substreams spawned from a single seed so parallel draws stay
reproducible; ``pooled`` and ``mc_estimate`` are the only loops over them.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, NonConvergence

_EPS = np.finfo(float).eps

# G7/K15 nodes on [-1,1]: (node, Gauss weight, Kronrod weight).
_GK15 = np.array([
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.0, 0.022935322010529),
    (-0.991455371120813, 0.0, 0.022935322010529),
    (+0.864864423359769, 0.0, 0.104790010322250),
    (-0.864864423359769, 0.0, 0.104790010322250),
    (+0.586087235467691, 0.0, 0.169004726639267),
    (-0.586087235467691, 0.0, 0.169004726639267),
    (+0.207784955007898, 0.0, 0.204432940075298),
    (-0.207784955007898, 0.0, 0.204432940075298),
])
_GK_X = _GK15[:, 0]
_GK_WG = _GK15[:, 1]
_GK_WK = _GK15[:, 2]

MIN_PANELS = 4  # equal panels that ``integrate_interval`` starts from


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_evals: int = 500_000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_evals < 100:
            raise DomainError("max_evals must be at least 100")


@dataclass(frozen=True)
class MonteCarloConfig:
    n_samples: int = 100_000
    seed: int = 0
    n_streams: int = 4

    def __post_init__(self):
        if self.n_samples < 1 or self.n_streams < 1:
            raise DomainError("n_samples and n_streams must be >= 1")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Estimate:
    """A value with an error bound.

    ``kind`` records whether ``error_bound`` is a one-sided quadrature bound
    or a 1-sigma Monte Carlo standard error.
    """
    value: float
    error_bound: float
    n_evals: int
    kind: str = "quadrature"

    def __post_init__(self):
        if self.error_bound < 0:
            raise DomainError("error_bound must be nonnegative")


class Columns(list):
    """The ``Estimate`` of each component of one pass, in order.  The
    components share the pass's evaluations, so the list's ``n_evals`` is
    every one of theirs."""

    @property
    def n_evals(self) -> int:
        return self[0].n_evals


def _gk_reduce(y, h: float):
    """The G7/K15 value and error estimate of each row of ``y`` (one row of
    15 values per component, on a panel of half-width ``h``), as lists."""
    vals, errs = [], []
    for col in y:
        g7 = h * float(np.dot(_GK_WG, col))
        k15 = h * float(np.dot(_GK_WK, col))
        err = (200.0 * abs(g7 - k15)) ** 1.5
        vals.append(k15)
        errs.append(min(err, abs(g7 - k15) * 200.0 + _EPS))
    return vals, errs


def _gk_panel(f, a, b):
    """One G7/K15 evaluation of ``f`` (vectorized) on [a, b]: the value and
    the error estimate of each component of ``f`` (one for a 1-D ``f``), as
    lists of floats."""
    h = 0.5 * (b - a)
    x = a + (_GK_X + 1.0) * h
    y = np.asarray(f(x), dtype=float)
    if not np.isfinite(y).all():
        raise DomainError("integrand returned non-finite values")
    # float(h) is the same value; float arithmetic is cheaper than numpy scalars
    return _gk_reduce(np.ascontiguousarray(y.reshape(len(x), -1).T), float(h))


class _Panel:
    """One panel [lo, hi] of ``integrate_interval``: each component's value
    and G7/K15 error estimate (``vals``, ``errs``) and, for an integrand with
    an inner rule, that rule's error term (``terms``)."""
    terms = None

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi


class _PanelRule:
    """How ``integrate_interval`` builds its panels: here G7/K15 on a
    vectorized ``f``, one call of ``f`` per panel, with no inner rule."""

    def __init__(self, f):
        self.f = f

    def panels(self, spans):
        """One panel per ``(lo, hi, parent)`` of ``spans``, in order."""
        out = []
        for lo, hi, _ in spans:
            p = _Panel(lo, hi)
            p.vals, p.errs = _gk_panel(self.f, lo, hi)
            out.append(p)
        return out

    def refine(self, panels, share) -> bool:
        return False


def integrate_interval(f, a, b, config: QuadratureConfig) -> Columns:
    """Adaptive G7/K15 integral of a vectorized ``f`` over [a, b].

    ``f`` maps n points to an (n, k) stack of k integrands that share one
    subdivision (Genz & Malik 1980), or to n values, a stack of one.  A
    panel is split while any unconverged component carries more than its
    share of that component's budget, and the pass ends when every component
    meets its own max(abs_tol, rel_tol |value|).  Returns one ``Estimate``
    per component; ``n_evals`` counts abscissae.

    ``f`` may instead be a ``_PanelRule`` that builds the panels itself, as
    ``integrate_rd``'s angular rule does: each of its panels also holds
    ``terms``, per component the error of an inner rule whose order the
    panel chooses, integrated over the panel.  ``refine(panels, share)``
    raises the order of every panel where some component's term exceeds its
    share of that component's budget, in proportion to the panel's width,
    and says whether it raised any.  Splitting stays driven by the G7/K15
    estimate alone, since halving a panel halves both its term and its
    share; each component's bound adds its terms.
    """
    rule = f if isinstance(f, _PanelRule) else _PanelRule(f)
    edges = np.linspace(a, b, MIN_PANELS + 1)
    panels = rule.panels([(lo, hi, None) for lo, hi in zip(edges[:-1], edges[1:])])
    n_evals = 15 * len(panels)
    while True:
        total = [math.fsum(c) for c in zip(*(p.vals for p in panels))]
        tol = [max(config.abs_tol, config.rel_tol * abs(v)) for v in total]
        if rule.refine(panels, [t / (b - a) for t in tol]):
            continue
        err = [math.fsum(c) for c in zip(*(p.errs for p in panels))]
        converged = [e <= t for e, t in zip(err, tol)]
        if all(converged):
            if panels[0].terms is not None:
                err = [e + math.fsum(c) for e, c in zip(err, zip(*(p.terms for p in panels)))]
            return Columns(Estimate(v, e, n_evals) for v, e in zip(total, err))
        if n_evals + 30 > config.max_evals:
            j = max(range(len(err)), key=lambda j: err[j] / tol[j])
            raise NonConvergence(
                f"quadrature error {err[j]:.3e} > tol {tol[j]:.3e} after {n_evals} evals")
        # split every panel carrying more than its share of the budget of a
        # component that has not converged
        n = len(panels)
        cut = [math.inf if c else max(t / (2 * n), e / (4 * n))
               for c, e, t in zip(converged, err, tol)]
        kept, spans = [], []
        for p in panels:
            if any(map(operator.gt, p.errs, cut)) and n_evals + 30 <= config.max_evals:
                mid = 0.5 * (p.lo + p.hi)
                spans += [(p.lo, mid, p), (mid, p.hi, p)]
                kept += [None, None]
                n_evals += 30
            else:
                kept.append(p)
        halves = iter(rule.panels(spans))
        panels = [p or next(halves) for p in kept]


def _radial_map(s):
    """r = s/(1-s), which maps [0, 1) onto [0, infinity), and dr/ds."""
    return s / (1.0 - s), 1.0 / (1.0 - s) ** 2


def _radial_end(cutoff: float) -> float:
    """The s of r = ``cutoff``."""
    if not 0.0 < cutoff < math.inf:
        raise DomainError(f"cutoff must be positive and finite, got {cutoff}")
    return cutoff / (1.0 + cutoff)


def integrate_radial(integrand, config: QuadratureConfig, cutoff: float) -> Columns:
    """Integral of ``integrand`` over [0, infinity), truncated at ``cutoff``.

    The half-line is mapped to [0,1) by r = s/(1-s) and cut at r = ``cutoff``.
    The returned bound covers the quadrature only: the caller chooses the
    cutoff and accounts for the tail beyond it.  As in ``integrate_interval``,
    ``integrand`` returns an (n, k) stack or n values, and the result is one
    ``Estimate`` per component.
    """
    def mapped(s):
        r, jac = _radial_map(np.asarray(s, dtype=float))
        return np.asarray(integrand(r), dtype=float).reshape(len(r), -1) * jac[:, None]

    return integrate_interval(mapped, 0.0, _radial_end(cutoff), config)


@lru_cache(maxsize=None)
def angular_rule(d: int, order: int):
    """Nodes on S^{d-1} (shape (n, d)) and weights summing to its surface area.

    Order N is the trapezoid rule of N angles at d = 2, and at d = 3 the
    product of the N/2-node Gauss-Legendre rule in cos(theta) with the
    N-angle trapezoid rule in the azimuth, N^2/2 nodes, polar-major.  The
    trapezoid rule of N/2 angles is every other node of N's, and both
    converge exponentially for analytic integrands (Trefethen & Weideman,
    SIAM Rev. 56(3), 2014).  At d = 1 the two points of S^0 are exact.
    Built once per (d, order) and shared by every caller, so both arrays are
    read-only.
    """
    if d == 1:
        nodes, w = np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    elif d == 2:
        theta = 2.0 * np.pi * np.arange(order) / order
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        w = np.full(order, 2.0 * np.pi / order)
    elif d == 3:
        c, wc = leggauss(order // 2)
        phi = 2.0 * np.pi * np.arange(order) / order
        s = np.sqrt(1.0 - c ** 2)
        nodes = np.stack([np.outer(s, np.cos(phi)), np.outer(s, np.sin(phi)),
                          np.repeat(c[:, None], order, axis=1)], axis=-1).reshape(-1, 3)
        w = np.outer(wc, np.full(order, 2.0 * np.pi / order)).reshape(-1)
    else:
        raise DomainError(f"deterministic cubature supports d <= 3, got d={d}")
    nodes.setflags(write=False)
    w.setflags(write=False)
    return nodes, w


_FIRST_ORDER, _LAST_ORDER = 8, 128   # the angular orders are 8, 16, 32, 64, 128
CALL_POINTS = 1 << 14   # the most points of one call of g, unless one radius needs more


class _Pair(NamedTuple):
    fresh: np.ndarray     # the nodes a new panel evaluates
    half: np.ndarray      # where the half rule's nodes sit among them
    lacking: np.ndarray   # the nodes a panel raised from half the order lacks
    w: np.ndarray         # the weights of the rule and of the half rule
    half_w: np.ndarray


@lru_cache(maxsize=None)
def _pair(d: int, order: int) -> _Pair:
    """The angular rule of ``order`` and the rule of half that order, as
    ``integrate_rd`` evaluates them.  At d = 1 both are S^0's exact rule, so
    their difference is 0."""
    nodes, w = angular_rule(d, order)
    half_nodes, half_w = angular_rule(d, order // 2)
    n = len(w)
    if d == 3:     # the Gauss-Legendre nodes of the two rules differ
        return _Pair(np.concatenate([nodes, half_nodes]), np.arange(n, n + len(half_w)),
                     nodes, w, half_w)
    # at d = 2 the half rule is every other node; at d = 1 it is the rule itself
    return _Pair(nodes, np.arange(0, n, 2) if d == 2 else np.arange(n), nodes[1::2], w, half_w)


class _AngularRule(_PanelRule):
    """The panels of ``integrate_rd``'s radial integral in s, r = s/(1-s).

    On its 15 radii a panel holds Q_N, the angular sum of g of order N.  Each
    component's value is the G7/K15 integral of
    r^{d-1} exp(log_density(r^2)) Q_N(r) dr/ds, and its term the Kronrod
    integral of r^{d-1} exp(log_density(r^2)) |Q_N(r) - Q_{N/2}(r)| dr/ds.
    A new panel starts at its parent's order, or at 8, and evaluates both
    rules of its pair; ``refine`` doubles N, up to 128, evaluating only the
    nodes the panel lacks, and the Q_N it held becomes the half rule's.  The
    panels built or raised together share one call of g (up to ``batch``
    points), and a panel larger than that is called a run of its radii at a
    time; ``points`` counts the points at which g was evaluated.
    """

    def __init__(self, g, log_density, d: int, batch: int):
        self.g, self.log_density, self.d, self.batch = g, log_density, d, batch
        self.points = 0

    def panels(self, spans):
        out = []
        for lo, hi, _ in spans:
            p = _Panel(lo, hi)
            h = 0.5 * (hi - lo)
            p.h, p.q = float(h), None
            p.r, p.jac = _radial_map(lo + (_GK_X + 1.0) * h)
            p.density = np.atleast_2d(p.r ** (self.d - 1)
                                      * np.exp(self.log_density(p.r * p.r)).T)
            out.append(p)
        self._raise(out, [parent.order if parent else _FIRST_ORDER for *_, parent in spans])
        return out

    def refine(self, panels, share) -> bool:
        low = [p for p in panels if p.order < _LAST_ORDER
               and any(t > s * (p.hi - p.lo) for t, s in zip(p.terms, share))]
        if low:
            self._raise(low, [2 * p.order for p in low])
        return bool(low)

    def _raise(self, panels, orders):
        """Bring each new panel, or each panel that holds Q of half the
        order, to its order."""
        pairs = [_pair(self.d, order) for order in orders]
        jobs = [(p.r, pair.fresh if p.q is None else pair.lacking)
                for p, pair in zip(panels, pairs)]
        # per panel, its angular sums over each run of its radii
        sums = [[] for _ in panels]
        for i, vals in self._call(jobs):
            p, pair = panels[i], pairs[i]
            if p.q is None:
                sums[i].append((np.ascontiguousarray(vals[..., :len(pair.w)]) @ pair.w,
                                vals[..., pair.half] @ pair.half_w))
            else:   # at d = 2 the new angles bisect the held ones
                sums[i].append((vals @ (pair.half_w if self.d == 2 else pair.w),))
            del vals   # the call's stack goes before the next call of g
        for p, order, parts in zip(panels, orders, sums):
            new = [run[0] if len(run) == 1 else np.concatenate(run, axis=1) for run in zip(*parts)]
            if p.q is None:
                q, half = new   # (k, radii)
            elif self.d == 2:
                q, half = 0.5 * (p.q + new[0]), p.q
            else:
                q, half = new[0], p.q
            p.order, p.q = order, q
            y = p.density * q * p.jac
            if not np.isfinite(y).all():
                raise DomainError("integrand returned non-finite values")
            p.vals, p.errs = _gk_reduce(y, p.h)
            gap = p.density * np.abs(q - half) * p.jac
            p.terms = [p.h * float(np.dot(_GK_WK, col)) for col in gap]

    def _call(self, jobs):
        """g at r_i nodes_j for each ``(radii, nodes)`` job, as ``(job index,
        values)`` with values (k, radii, nodes), in order.  Consecutive jobs
        share a call of g while it stays within ``batch`` points; a larger
        job is called in runs of its radii of at most ``batch`` points (one
        radius at the least).  A call is made once the values before it are
        consumed, so one call's stack is held at a time."""
        i = 0
        while i < len(jobs):
            radii, nodes = jobs[i]
            if len(radii) * len(nodes) > self.batch:
                step = max(self.batch // len(nodes), 1)
                for lo in range(0, len(radii), step):
                    yield i, self._values([(radii[lo:lo + step], nodes)])[0]
                i += 1
                continue
            stop, size = i + 1, len(radii) * len(nodes)
            while stop < len(jobs) and size + len(jobs[stop][0]) * len(jobs[stop][1]) <= self.batch:
                size += len(jobs[stop][0]) * len(jobs[stop][1])
                stop += 1
            yield from zip(range(i, stop), self._values(jobs[i:stop]))
            i = stop

    def _values(self, jobs):
        """One call of g at r_i nodes_j for every ``(radii, nodes)`` of
        ``jobs``: one (k, radii, nodes) view of its stack per job."""
        size = sum(len(radii) * len(nodes) for radii, nodes in jobs)
        pts, row = np.empty((size, self.d)), 0
        for radii, nodes in jobs:
            n = len(radii) * len(nodes)
            block = pts[row:row + n].reshape(len(radii), len(nodes), self.d)
            np.multiply(radii[:, None, None], nodes[None, :, :], out=block)
            row += n
        vals = np.asarray(self.g(pts), dtype=float)
        if not np.isfinite(vals).all():
            raise DomainError("integrand returned non-finite values")
        self.points += size
        vals, row, out = vals.reshape(size, -1), 0, []
        for radii, nodes in jobs:
            n = len(radii) * len(nodes)
            out.append(vals[row:row + n].reshape(len(radii), len(nodes), -1).transpose(2, 0, 1))
            row += n
        return out


def integrate_rd(g, log_density, d: int, config: QuadratureConfig,
                 cutoff: float, batch: int = CALL_POINTS) -> Columns:
    """Integral of g(y) exp(log_density(|y|^2)) over the ball of radius ``cutoff``.

    ``g`` must accept an (n, d) array of points, ``log_density`` an array of
    squared radii.  Reduction: radial adaptive quadrature of
    r^{d-1} exp(log_density(r^2)) Q_N(r), Q_N(r) = sum_j w_j g(r w_j) the
    angular rule of order N (``angular_rule``), so the density is evaluated
    once per radius, never per point; as in ``integrate_radial``, the tail
    beyond the cutoff is the caller's.

    The order is chosen per radial panel from 8, 16, 32, 64 and 128.  A
    panel's angular term, per component, is the radial integral over the
    panel of the density times |Q_N - Q_{N/2}|; the order doubles while some
    component's term exceeds the panel's share of its budget (see
    ``integrate_interval``).  The rule of order N/2 costs no extra points at
    d = 2 (its nodes are among N's); at d = 3 a new panel also evaluates it
    (a quarter more points), and a raised panel reuses the Q it held.  A
    panel that still misses its share at order 128 keeps Q_128.  Each
    component's bound is the G7/K15 estimate plus its angular terms, so it
    holds whether or not a panel met its share.

    ``g`` returns an (n, k) stack or n values, integrated on one shared
    subdivision as in ``integrate_interval``; ``log_density`` returns either
    one column for every component or one per component, (n_r, k).  One
    call of g takes the points of several panels, up to ``batch`` of them,
    and a larger panel a run of its radii at a time; a caller whose g returns
    k columns passes ``CALL_POINTS // k`` to keep the stack of a call at the
    size of one column's.  Returns one ``Estimate`` per component;
    ``n_evals`` counts the points at which g was evaluated.
    """
    rule = _AngularRule(g, log_density, d, batch)
    ests = integrate_interval(rule, 0.0, _radial_end(cutoff), config)
    return Columns(Estimate(e.value, e.error_bound, rule.points) for e in ests)


def spawn_rngs(seed: int, n_streams: int):
    """Independent reproducible generators from one 64-bit seed."""
    ss = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in ss.spawn(n_streams)]


def pairwise_sum(values) -> float:
    """Deterministic pairwise-tree reduction, independent of scheduling."""
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def substreams(cfg: MonteCarloConfig):
    """Yield ``(rng, n)`` for each substream that gets samples.

    ``cfg.n_samples`` is split as evenly as possible over ``cfg.n_streams``
    generators spawned from ``cfg.seed``, the first streams taking one extra
    sample each; a stream with no samples is skipped.
    """
    per, extra = divmod(cfg.n_samples, cfg.n_streams)
    for i, rng in enumerate(spawn_rngs(cfg.seed, cfg.n_streams)):
        n = per + (i < extra)
        if n:
            yield rng, n


def pooled(draw, cfg: MonteCarloConfig):
    """``draw(rng, n)`` over every substream of ``cfg``, concatenated in
    stream order; a draw that returns a tuple is concatenated componentwise."""
    parts = [draw(rng, n) for rng, n in substreams(cfg)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(part) for part in zip(*parts))
    return np.concatenate(parts)


def mc_estimate(sample_fn, cfg: MonteCarloConfig) -> Columns:
    """Monte Carlo mean of ``sample_fn(rng, n) -> array`` over all substreams.

    An (n, k) array gives the k means of the same draws, n values one mean:
    one ``Estimate`` per column.
    """
    sums, sq_sums, n_tot = [], [], 0
    for rng, n in substreams(cfg):
        x = np.asarray(sample_fn(rng, n), dtype=float)
        cols = np.ascontiguousarray(x.reshape(n, -1).T)
        sums.append([float(np.sum(c)) for c in cols])
        sq_sums.append([float(np.sum(c * c)) for c in cols])
        n_tot += n
    out = Columns()
    for total, total_sq in zip(map(pairwise_sum, zip(*sums)), map(pairwise_sum, zip(*sq_sums))):
        mean = total / n_tot
        var = max(total_sq / n_tot - mean * mean, 0.0)
        out.append(Estimate(mean, math.sqrt(var / n_tot), n_tot, kind="monte-carlo"))
    return out

"""Euclidean projections onto the probability simplex and sequence-form polytopes.

The simplex path uses the exact sort-and-threshold rule (float and rational
flavors).  The treeplex path is closed form for the two shapes the two-round
game has: a product of simplices under the root (worker), and one simplex of
offers with a binary choice per (offer, counter) pair below it (firm).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "StructuralError",
    "Treeplex",
    "BehavioralCell",
    "SimplexCertificate",
    "project_simplex",
    "project_simplex_exact",
    "TreeplexProjector",
    "behavioral_from_plan",
    "validate_plan",
    "check_simplex",
]

# Tolerances shared across the package.
PLAN_FLOW_TOL = 1e-9        # realization-constraint residual accepted on plans
PLAN_NEG_TOL = 1e-12        # negative dust accepted on plans
UNREACHABLE_TOL = 1e-12     # parent mass below this marks an infoset unreachable


class StructuralError(ValueError):
    """Shape or indexing mismatch between a vector and its polytope/grid."""


@dataclass(frozen=True)
class Treeplex:
    """Sequence-form polytope: a forest of infosets hanging off sequences.

    ``infosets[i] = (parent_sequence, children)`` encodes the flow constraint
    sum(children) == parent.  The root sequence is pinned to 1.
    """

    n_sequences: int
    root: int
    infosets: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        seen: dict[int, int] = {}
        for iset, (parent, children) in enumerate(self.infosets):
            if not (0 <= parent < self.n_sequences):
                raise StructuralError(f"infoset {iset}: parent {parent} out of range")
            if not children:
                raise StructuralError(f"infoset {iset} has no extensions")
            for c in children:
                if not (0 <= c < self.n_sequences) or c == self.root:
                    raise StructuralError(f"infoset {iset}: bad child {c}")
                if c in seen:
                    raise StructuralError(f"sequence {c} extends two infosets")
                seen[c] = iset
        missing = set(range(self.n_sequences)) - {self.root} - set(seen)
        if missing:
            raise StructuralError(f"sequences outside any infoset: {sorted(missing)}")
        # Parents must be assigned before their children (forest rooted at root).
        depth = {self.root: 0}
        for parent, children in self.infosets:
            if parent not in depth:
                raise StructuralError("infosets are not topologically ordered")
            for c in children:
                depth[c] = depth[parent] + 1

    def constraints(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (E, e) with E @ r == e for every valid realization plan."""
        m = 1 + len(self.infosets)
        E = np.zeros((m, self.n_sequences))
        e = np.zeros(m)
        E[0, self.root] = 1.0
        e[0] = 1.0
        for i, (parent, children) in enumerate(self.infosets):
            E[1 + i, list(children)] = 1.0
            E[1 + i, parent] -= 1.0
        return E, e

    def uniform_plan(self) -> np.ndarray:
        """Feasible plan splitting every infoset uniformly."""
        r = np.zeros(self.n_sequences)
        r[self.root] = 1.0
        for parent, children in self.infosets:
            r[list(children)] = r[parent] / len(children)
        return r

    @cached_property
    def _levels(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per parent depth, deepest first: (children, starts, sizes, parents).

        Infosets keep their reversed list order, so values added onto a shared
        parent sum in the order of an infoset-by-infoset backward walk.
        """
        depth = {self.root: 0}
        for parent, children in self.infosets:
            for c in children:
                depth[c] = depth[parent] + 1
        levels = []
        for d in sorted({depth[parent] for parent, _ in self.infosets}, reverse=True):
            isets = [(p, ch) for p, ch in reversed(self.infosets) if depth[p] == d]
            sizes = np.array([len(ch) for _, ch in isets])
            levels.append((np.concatenate([ch for _, ch in isets]), np.cumsum(sizes) - sizes,
                           sizes, np.array([p for p, _ in isets])))
        return tuple(levels)

    def normalize_backward(self, u: np.ndarray) -> np.ndarray:
        """Shift ``u`` by a row-space translation so every infoset tops out at 0.

        Walks infosets deepest-first, moving each infoset's best-child value
        onto its parent sequence (a backward-induction pass), one depth level
        at a time.  Projections are invariant under such translations, but the
        shifted vector keeps the numerically active entries at unit scale
        however large the raw cumulative utilities grow.  A 2-D ``u`` is
        shifted row by row, each row exactly as on its own.
        """
        out = np.array(u, dtype=float)
        flat = out.reshape(-1)
        for children, starts, sizes, parents in self._stacked_levels(flat.size // self.n_sequences):
            top = np.maximum.reduceat(flat.take(children), starts)
            flat[children] -= np.repeat(top, sizes)
            np.add.at(flat, parents, top)
        flat[self.root::self.n_sequences] = 0.0
        return out

    def _stacked_levels(self, k: int):
        """:attr:`_levels` with indices into a flattened stack of ``k`` rows."""
        if k == 1:
            return self._levels
        offset = np.arange(k)[:, None]
        return tuple(
            ((children + self.n_sequences * offset).ravel(), (starts + children.size * offset).ravel(),
             np.tile(sizes, k), (parents + self.n_sequences * offset).ravel())
            for children, starts, sizes, parents in self._levels
        )


@dataclass(frozen=True)
class SimplexCertificate:
    """KKT certificate for a simplex projection: threshold and active support."""

    theta: float
    support: np.ndarray


@dataclass(frozen=True)
class BehavioralCell:
    """Local distribution recovered at one infoset, with a reachability flag."""

    probs: np.ndarray
    unreachable: bool


def check_simplex(x: np.ndarray, tol: float = 1e-12) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= -tol) and abs(float(x.sum()) - 1.0) <= max(tol, 1e-12))


def _threshold_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort-and-threshold along the last axis: (projection, threshold per row)."""
    rows = v.reshape(-1, v.shape[-1])
    u = -rows
    u.sort(axis=1)
    u *= -1.0
    css = u.cumsum(axis=1)
    css -= 1.0
    cond = u * np.arange(1.0, u.shape[1] + 1.0) > css
    rho = u.shape[1] - 1 - cond[:, ::-1].argmax(axis=1)
    theta = css.take(rho + np.arange(0, css.size, css.shape[1])) / (rho + 1.0)
    x = rows - theta[:, None]
    np.maximum(x, 0.0, out=x)
    return x.reshape(v.shape), theta.reshape(v.shape[:-1])


def project_simplex(v, return_certificate: bool = False):
    """Nearest point of ``v`` on the probability simplex (sort-and-threshold).

    A 2-D ``v`` is projected row by row.  The rule sorts values, not
    indices, so ties cannot change the result: runs are bit-reproducible and
    a row of a stack projects exactly as it does on its own.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] == 0:
        raise StructuralError("projection input must be a non-empty vector or stack of vectors")
    if not np.isfinite(v).all():
        raise ValueError("projection input must be finite (no NaN/inf)")
    x, theta = _threshold_rows(v)
    if return_certificate:
        if v.ndim != 1:
            raise StructuralError("a certificate needs a single vector")
        return x, SimplexCertificate(theta=float(theta), support=x > 0.0)
    return x


def project_simplex_batch(v: np.ndarray) -> np.ndarray:
    """:func:`project_simplex` of every vector along the last axis, without input checks."""
    return _threshold_rows(np.asarray(v, dtype=float))[0]


def project_simplex_exact(v: Sequence[Fraction]) -> list[Fraction]:
    """Exact-rational twin of :func:`project_simplex`."""
    vals = [Fraction(x) for x in v]
    if not vals:
        raise StructuralError("projection input must be a non-empty vector")
    order = sorted(range(len(vals)), key=lambda i: (-vals[i], i))
    total = Fraction(0)
    theta = None
    for j, i in enumerate(order, start=1):
        total += vals[i]
        cand = (total - 1) / j
        if vals[i] - cand > 0:
            theta = cand
        else:
            break
    assert theta is not None
    zero = Fraction(0)
    return [x - theta if x > theta else zero for x in vals]


def behavioral_from_plan(r: np.ndarray, t: Treeplex) -> list[BehavioralCell]:
    """Per-infoset local simplices r(child)/r(parent).

    Infosets whose parent mass is at most ``UNREACHABLE_TOL`` get a uniform
    placeholder and are flagged unreachable.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (t.n_sequences,):
        raise StructuralError("plan length does not match treeplex")
    cells = []
    for parent, children in t.infosets:
        mass = float(r[parent])
        if mass <= UNREACHABLE_TOL:
            probs = np.full(len(children), 1.0 / len(children))
            cells.append(BehavioralCell(probs=probs, unreachable=True))
        else:
            probs = np.maximum(r[list(children)], 0.0) / mass
            cells.append(BehavioralCell(probs=probs, unreachable=False))
    return cells


def validate_plan(r: np.ndarray, t: Treeplex, tol: float = PLAN_FLOW_TOL) -> bool:
    r = np.asarray(r, dtype=float)
    if r.shape != (t.n_sequences,):
        raise StructuralError("plan length does not match treeplex")
    if abs(float(r[t.root]) - 1.0) > tol or float(r.min()) < -PLAN_NEG_TOL:
        return False
    E, e = t.constraints()
    return float(np.abs(E @ r - e).max()) <= tol


class TreeplexProjector:
    """Exact Euclidean projection onto a treeplex of one of two shapes.

    * Every infoset hangs off the root, all with the same number of children
      (the worker's treeplex, or a plain simplex): one simplex projection per
      infoset, in one batch.
    * One root infoset whose children each carry the same number m of binary
      infosets (the firm's treeplex: offers, then accept/reject per counter).
      Offer mass s splits over pair (p, q) as y = clip((s + p - q)/2, 0, s),
      at marginal cost s - max(p, q) - (s - |p - q|)_+ / 2.  So offer a's
      marginal cost g_a(s) is increasing, concave and piecewise linear (slope
      1 + m - j/2 past its j-th breakpoint), its inverse s_a(lam) floored at
      0 is convex, and the multiplier of sum(s_a) == 1 follows exactly from
      evaluating sum(s_a) at every breakpoint and interpolating linearly.

    Any other shape raises :class:`StructuralError` here, although
    :class:`Treeplex` itself accepts it.
    """

    def __init__(self, t: Treeplex):
        self.treeplex = t
        self.n = t.n_sequences
        top = [children for parent, children in t.infosets if parent == t.root]
        below = [(parent, children) for parent, children in t.infosets if parent != t.root]
        if not below and len({len(children) for children in top}) == 1:
            self._blocks = np.array(top)
            return
        self._blocks = None
        offers = top[0] if len(top) == 1 else ()
        rows = [[children for parent, children in below if parent == a] for a in offers]
        if (not rows or len({len(r) for r in rows}) != 1 or sum(map(len, rows)) != len(below)
                or any(len(ch) != 2 for _, ch in below)):
            raise StructuralError("treeplex shape not supported by the projector")
        self._offers = np.array(offers)
        self._accept, self._reject = np.moveaxis(np.array(rows), -1, 0)
        n, m = self._accept.shape
        self._slope = 1.0 + m - 0.5 * np.arange(m + 1)
        self._rate_steps = np.tile(np.diff(1.0 / self._slope, prepend=0.0), n)

    def project(self, v) -> np.ndarray:
        """Nearest realization plan to ``v``; the root entry of ``v`` is ignored.

        A 2-D ``v`` is projected row by row, each row exactly as on its own.
        """
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.n:
            raise StructuralError("projection input length does not match treeplex")
        if not np.isfinite(v).all():
            raise ValueError("projection input must be finite (no NaN/inf)")
        x = np.zeros(v.shape)
        rows, out = v.reshape(-1, self.n), x.reshape(-1, self.n)
        out[:, self.treeplex.root] = 1.0
        if self._blocks is not None:
            out[:, self._blocks] = project_simplex_batch(rows.take(self._blocks, axis=1))
            return x

        p, q = rows.take(self._accept, axis=1), rows.take(self._reject, axis=1)
        # breakpoints t (ascending per offer, led by s = 0) and g_a at each
        t = np.zeros(p.shape[:2] + (p.shape[2] + 1,))
        t[:, :, 1:] = np.sort(np.abs(p - q), axis=2)
        g0 = -rows.take(self._offers, axis=1) - np.maximum(p, q).sum(axis=2)
        g = g0[:, :, None] + self._slope * t + 0.5 * np.cumsum(t, axis=2)
        # S at the sorted breakpoints; its slope in lam grows by the change of
        # 1/slope as lam passes each breakpoint of each offer
        g_flat = g.reshape(len(rows), -1)
        lam = np.sort(g_flat, axis=1)
        rate = np.cumsum(self._rate_steps[np.argsort(g_flat, axis=1, kind="stable")], axis=1)
        total = np.zeros(lam.shape)
        total[:, 1:] = np.cumsum(rate[:, :-1] * (lam[:, 1:] - lam[:, :-1]), axis=1)
        # total is nondecreasing along a row: lam_star follows its last entry <= 1
        k = np.arange(lam.shape[1] - 1, lam.size, lam.shape[1]) - (total > 1.0).sum(axis=1)
        lam_star = lam.take(k) + (1.0 - total.take(k)) / rate.take(k)
        # s_a is convex, so it is the largest of its affine pieces
        s = np.maximum((t + (lam_star[:, None, None] - g) / self._slope).max(axis=2), 0.0)
        y = np.minimum(np.maximum((s[:, :, None] + p - q) / 2.0, 0.0), s[:, :, None])
        out[:, self._offers] = s
        out[:, self._accept] = y
        out[:, self._reject] = s[:, :, None] - y
        return x

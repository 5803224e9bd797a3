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
        however large the raw cumulative utilities grow.
        """
        out = np.array(u, dtype=float)
        for children, starts, sizes, parents in self._levels:
            top = np.maximum.reduceat(out[children], starts)
            out[children] -= np.repeat(top, sizes)
            np.add.at(out, parents, top)
        out[self.root] = 0.0
        return out


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


def project_simplex(v, return_certificate: bool = False):
    """Nearest point of ``v`` on the probability simplex (sort-and-threshold).

    Ties between equal entries are broken by a stable sort on the index, so
    runs are bit-reproducible.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise StructuralError("projection input must be a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("projection input must be finite (no NaN/inf)")
    u = v[np.argsort(-v, kind="stable")]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, u.size + 1)
    rho = int(np.nonzero(u * idx > css)[0][-1])
    theta = css[rho] / (rho + 1.0)
    x = np.maximum(v - theta, 0.0)
    if return_certificate:
        return x, SimplexCertificate(theta=float(theta), support=x > 0.0)
    return x


def project_simplex_batch(v: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection; same rule as :func:`project_simplex`."""
    v = np.asarray(v, dtype=float)
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, v.shape[1] + 1)
    cond = u * idx > css
    rho = v.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(v.shape[0]), rho] / (rho + 1.0)
    return np.maximum(v - theta[:, None], 0.0)


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
        """Nearest realization plan to ``v``; the root entry of ``v`` is ignored."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise StructuralError("projection input length does not match treeplex")
        if not np.all(np.isfinite(v)):
            raise ValueError("projection input must be finite (no NaN/inf)")
        x = np.zeros(self.n)
        x[self.treeplex.root] = 1.0
        if self._blocks is not None:
            x[self._blocks] = project_simplex_batch(v[self._blocks])
            return x

        p, q = v[self._accept], v[self._reject]
        # breakpoints t (ascending per offer, led by s = 0) and g_a at each
        t = np.zeros((p.shape[0], p.shape[1] + 1))
        t[:, 1:] = np.sort(np.abs(p - q), axis=1)
        g0 = -v[self._offers] - np.maximum(p, q).sum(axis=1)
        g = g0[:, None] + self._slope * t + 0.5 * np.cumsum(t, axis=1)
        # S at the sorted breakpoints; its slope in lam grows by the change of
        # 1/slope as lam passes each breakpoint of each offer
        order = np.argsort(g, axis=None, kind="stable")
        lam = g.ravel()[order]
        rate = np.cumsum(self._rate_steps[order])
        total = np.zeros(lam.size)
        total[1:] = np.cumsum(rate[:-1] * (lam[1:] - lam[:-1]))
        k = int(np.searchsorted(total, 1.0, side="right")) - 1
        lam_star = lam[k] + (1.0 - total[k]) / rate[k]
        # s_a is convex, so it is the largest of its affine pieces
        s = np.maximum((t + (lam_star - g) / self._slope).max(axis=1), 0.0)[:, None]
        y = np.minimum(np.maximum((s + p - q) / 2.0, 0.0), s)
        x[self._offers] = s[:, 0]
        x[self._accept] = y
        x[self._reject] = s - y
        return x

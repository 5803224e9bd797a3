"""Euclidean projections onto the probability simplex and sequence-form polytopes.

The simplex path uses the exact sort-and-threshold rule (float and rational
flavors).  The treeplex layers serve the two layouts the two-round game has,
which :class:`Treeplex` builds and recognises in one place: blocks, a product
of simplices under the root (worker; a plain simplex is one block), and
pairs, one simplex of offers with a binary choice per (offer, counter) pair
below it (firm).  Backward normalization and the closed-form projection
both work on reshaped views of that layout.
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
    "project_simplex",
    "project_simplex_exact",
    "TreeplexProjector",
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

    @classmethod
    def blocks(cls, n: int, c: int) -> "Treeplex":
        """``n`` infosets of ``c`` children under the root: [root, n heads, n*(c-1) tails].

        Infoset a holds head a, then its own c - 1 tails.  This is the worker's
        treeplex (accepts, then counters) and, for n = 1, the plain simplex.
        """
        return cls(1 + n * c, 0, tuple(
            (0, (1 + a,) + tuple(range(1 + n + a * (c - 1), 1 + n + (a + 1) * (c - 1))))
            for a in range(n)))

    @classmethod
    def pairs(cls, n: int, m: int) -> "Treeplex":
        """A root infoset over ``n`` heads, each with ``m`` binary infosets below it.

        Layout [root, n heads, n*m (first, second) pairs]: the firm's treeplex
        (offers, then accept/reject per counter).
        """
        return cls(1 + n + 2 * n * m, 0, ((0, tuple(range(1, 1 + n))),) + tuple(
            (1 + a, (1 + n + 2 * (a * m + b), 2 + n + 2 * (a * m + b)))
            for a in range(n) for b in range(m)))

    @cached_property
    def _layout(self) -> tuple[bool, int, int]:
        """``(pairs, n, m)``: which canonical layout this is, with n heads and m below each.

        Both two-round layers read and write stacks through :meth:`_views` of
        this layout; any other treeplex raises :class:`StructuralError`.
        """
        n = len(self.infosets)
        c = len(self.infosets[0][1]) if n else 0
        if c > 1 and self == Treeplex.blocks(n, c):
            return False, n, c - 1
        if c and self == Treeplex.pairs(c, (n - 1) // c):
            return True, c, (n - 1) // c
        raise StructuralError("treeplex is neither a blocks nor a pairs layout")

    def _views(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of a ``(k, n_sequences)`` stack: heads ``(k, n)`` and what hangs below.

        Below is ``(k, n, m, 2)`` (first, second) pairs or ``(k, n, m)`` tails.
        """
        pairs, n, m = self._layout
        below = (len(rows), n, m, 2) if pairs else (len(rows), n, m)
        return rows[:, 1 : 1 + n], rows[:, 1 + n :].reshape(below)

    def normalize_backward(self, u: np.ndarray) -> np.ndarray:
        """Shift ``u`` by a row-space translation so every infoset tops out at 0.

        Moves each infoset's best-child value onto its parent sequence,
        deepest infosets first (a backward-induction pass).  Projections are
        invariant under such translations, but the shifted vector keeps the
        numerically active entries at unit scale however large the raw
        cumulative utilities grow.  A 2-D ``u`` is shifted row by row, each row
        exactly as on its own.
        """
        out = np.array(u, dtype=float)
        rows = out.reshape(-1, self.n_sequences)
        head, below = self._views(rows)
        pairs, _, m = self._layout
        if pairs:
            top = np.maximum(below[..., 0], below[..., 1])
            below -= top[..., None]
            # last pair first: the summation order of an infoset-by-infoset walk
            for b in range(m - 1, -1, -1):
                head += top[:, :, b]
            head -= head.max(axis=1, keepdims=True)
        else:
            top = np.maximum(head, below.max(axis=2))
            head -= top
            below -= top[..., None]
        rows[:, self.root] = 0.0
        return out


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


def project_simplex(v) -> np.ndarray:
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
    return _threshold_rows(v)[0]


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


def validate_plan(r: np.ndarray, t: Treeplex, tol: float = PLAN_FLOW_TOL) -> bool:
    r = np.asarray(r, dtype=float)
    if r.shape != (t.n_sequences,):
        raise StructuralError("plan length does not match treeplex")
    if abs(float(r[t.root]) - 1.0) > tol or float(r.min()) < -PLAN_NEG_TOL:
        return False
    E, e = t.constraints()
    return float(np.abs(E @ r - e).max()) <= tol


class TreeplexProjector:
    """Exact Euclidean projection onto a treeplex of one of the two layouts.

    * Blocks (the worker's treeplex, or a plain simplex): one simplex
      projection per infoset, in one batch.
    * Pairs (the firm's treeplex: offers, then accept/reject per counter).
      Offer mass s splits over pair (p, q) as y = clip((s + p - q)/2, 0, s),
      at marginal cost s - max(p, q) - (s - |p - q|)_+ / 2.  So offer a's
      marginal cost g_a(s) is increasing, concave and piecewise linear (slope
      1 + m - j/2 past its j-th breakpoint), its inverse s_a(lam) floored at
      0 is convex, and the multiplier of sum(s_a) == 1 follows exactly from
      evaluating sum(s_a) at every breakpoint and interpolating linearly.

    Any other treeplex raises :class:`StructuralError` here; both layers
    share one layout check (``Treeplex._layout``).
    """

    def __init__(self, t: Treeplex):
        self.treeplex = t
        self._pairs, n, m = t._layout
        self._slope = 1.0 + m - 0.5 * np.arange(m + 1)
        self._rate_steps = np.tile(np.diff(1.0 / self._slope, prepend=0.0), n)

    def project(self, v) -> np.ndarray:
        """Nearest realization plan to ``v``; the root entry of ``v`` is ignored.

        A 2-D ``v`` is projected row by row, each row exactly as on its own.
        """
        v = np.asarray(v, dtype=float)
        tp = self.treeplex
        if v.ndim not in (1, 2) or v.shape[-1] != tp.n_sequences:
            raise StructuralError("projection input length does not match treeplex")
        if not np.isfinite(v).all():
            raise ValueError("projection input must be finite (no NaN/inf)")
        x = np.zeros(v.shape)
        rows, out = v.reshape(-1, tp.n_sequences), x.reshape(-1, tp.n_sequences)
        out[:, tp.root] = 1.0
        head, below = tp._views(rows)
        out_head, out_below = tp._views(out)
        if not self._pairs:
            blocks = project_simplex_batch(np.concatenate([head[:, :, None], below], axis=2))
            out_head[...] = blocks[:, :, 0]
            out_below[...] = blocks[:, :, 1:]
            return x

        p, q = below[..., 0], below[..., 1]
        # breakpoints t (ascending per offer, led by s = 0) and g_a at each
        t = np.zeros(p.shape[:2] + (p.shape[2] + 1,))
        gaps = t[:, :, 1:]
        np.subtract(p, q, out=gaps)
        np.abs(gaps, out=gaps)
        gaps.sort(axis=2)
        g0 = -head - np.maximum(p, q).sum(axis=2)
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
        out_head[...] = s
        out_below[..., 0] = y
        out_below[..., 1] = s[:, :, None] - y
        return x

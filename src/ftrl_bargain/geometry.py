"""Euclidean projections onto the probability simplex and sequence-form polytopes.

The simplex path uses the exact sort-and-threshold rule, on float stacks and
on object stacks of ``Fraction``s.  :class:`Treeplex` is the one owner of the
two layouts the two-round game has: blocks, a product of simplices under the
root (worker; a plain simplex is one block), and pairs, one simplex of offers
with a binary choice per (offer, counter) pair below it (firm).  It is a
value of three sizes whose ``views`` give every other module the heads and
what hangs below them; backward normalization, plan validation and the
closed-form projection all work on those views.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import ClassVar

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
    """Sequence-form polytope of one of the two layouts; the root sequence is pinned to 1.

    Every vector on it is ``[root, n heads, what hangs below the heads]``:

    * blocks (``paired`` false): head a and its m tails form one infoset
      under the root.  This is the worker's treeplex, ``[root] + [accept a] +
      [reject a & counter b for (a, b)]``, and for n = 1 the plain simplex.
    * pairs (``paired`` true): the heads form one infoset under the root,
      and each head a carries m binary infosets (first, second).  This is the
      firm's treeplex, ``[root] + [offer a] + [a accept b, a reject b for
      (a, b)]``.

    Both are ordered by round, then offer a, then counter b, accept before
    reject.  :meth:`views` is the one place that turns this layout into
    array shapes.
    """

    paired: bool
    n: int
    m: int
    root: ClassVar[int] = 0

    def __post_init__(self):
        if not all(isinstance(k, int) and k >= 1 for k in (self.n, self.m)):
            raise StructuralError(f"treeplex needs n, m >= 1, got n={self.n}, m={self.m}")

    @classmethod
    def blocks(cls, n: int, c: int) -> "Treeplex":
        """``n`` infosets of ``c`` children (a head, then ``c - 1`` tails) under the root."""
        return cls(False, n, c - 1)

    @classmethod
    def pairs(cls, n: int, m: int) -> "Treeplex":
        """A root infoset over ``n`` heads, each with ``m`` binary infosets below it."""
        return cls(True, n, m)

    @cached_property
    def n_sequences(self) -> int:
        return 1 + self.n + self.n * self.m * (2 if self.paired else 1)

    def views(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of a ``(..., n_sequences)`` array: heads ``(..., n)`` and what hangs below.

        Below is ``(..., n, m)`` tails (blocks) or ``(..., n, m, 2)`` (first,
        second) pairs.  Writing to a view writes to ``x``.
        """
        below = (self.n, self.m, 2) if self.paired else (self.n, self.m)
        return x[..., 1 : 1 + self.n], x[..., 1 + self.n :].reshape(x.shape[:-1] + below)

    def uniform_plan(self) -> np.ndarray:
        """Feasible plan splitting every infoset uniformly."""
        r = np.zeros(self.n_sequences)
        r[self.root] = 1.0
        head, below = self.views(r)
        if self.paired:
            head[...] = 1.0 / self.n
            below[...] = 0.5 / self.n
        else:
            head[...] = below[...] = 1.0 / (1 + self.m)
        return r

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
        head, below = self.views(rows)
        if self.paired:
            top = np.maximum(below[..., 0], below[..., 1])
            below -= top[..., None]
            # last pair first: the summation order of an infoset-by-infoset walk
            for b in range(self.m - 1, -1, -1):
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


def project_simplex_exact(v) -> np.ndarray:
    """Exact-rational twin of :func:`project_simplex` on ``Fraction`` vectors or stacks.

    The same sort-and-threshold rule, row by row and without rounding; the
    scan for the threshold stops at the first entry the support excludes.
    """
    v = np.asarray(v, dtype=object)
    if v.ndim not in (1, 2) or v.shape[-1] == 0:
        raise StructuralError("projection input must be a non-empty vector or stack of vectors")
    out = np.empty_like(v)
    zero = Fraction(0)
    for row, x in zip(v.reshape(-1, v.shape[-1]), out.reshape(-1, v.shape[-1])):
        excess, k = Fraction(-1), 0  # sum of the k largest entries, minus one
        for u in sorted(row, reverse=True):
            if u * k <= excess:
                break
            excess += u
            k += 1
        theta = excess / k
        x[:] = [u - theta if u > theta else zero for u in row]
    return out


def validate_plan(r: np.ndarray, t: Treeplex, tol: float = PLAN_FLOW_TOL) -> bool:
    """Whether ``r`` is a realization plan of ``t``: root 1, flows within ``tol``, no negatives."""
    r = np.asarray(r, dtype=float)
    if r.shape != (t.n_sequences,):
        raise StructuralError("plan length does not match treeplex")
    if abs(float(r[t.root]) - 1.0) > tol or float(r.min()) < -PLAN_NEG_TOL:
        return False
    head, below = t.views(r)
    if t.paired:
        flows = np.append(below.sum(axis=2) - head[:, None], head.sum() - r[t.root])
    else:
        flows = head + below.sum(axis=1) - r[t.root]
    return float(np.abs(flows).max()) <= tol


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
    """

    def __init__(self, t: Treeplex):
        self.treeplex = t
        n, m = t.n, t.m
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
        head, below = tp.views(rows)
        out_head, out_below = tp.views(out)
        if not tp.paired:
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

"""Euclidean projections onto the probability simplex and sequence-form polytopes.

The simplex path uses the exact sort-and-threshold rule, on float stacks and
on integer numerators over one denominator per row.  :class:`Treeplex` is
the one owner of the two layouts the two-round game has: blocks, a product of
simplices under the root (worker; a plain simplex is one block), and pairs,
one simplex of offers with a binary choice per (offer, counter) pair below
it (firm).  It is a value of three sizes whose ``views`` give every other
module the heads and what hangs below them; backward normalization, plan
validation and the closed-form projection all work on those views.

The float projections and backward normalization take one vector or a
``(k, n)`` stack of rows in any memory order.  Each body works down axis 0 of
the stack's ``.T`` view (through :meth:`Treeplex.entry_views` on the
treeplex), so on the ``.T`` view of the kernel's entries-major state every
sort, scan and reduction runs across the rows at once.  Sorts, maxes,
argmaxes and cumulative sums round the same in either order; the one sum that
may take numpy's pairwise path, over a firm offer's pairs, is taken along a
contiguous axis as a row-major stack takes it.  The simplex scans (this
module's and :func:`games.ultimatum_feedback`'s) go through
:func:`_cumsum_down`, which adds one row at a time on stacks at least
``WIDE`` runs wide, on the bits and in the layout of ``np.cumsum``; the
firm's treeplex projection keeps ``np.cumsum`` (row adds gained nothing there).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import operator
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


def _integer(name: str, value) -> int:
    """``value`` as an ``int`` if it is no ``bool`` (``operator.index`` takes True as 1)
    and ``operator.index`` accepts it; a ValueError naming ``name`` if not."""
    try:
        return int(operator.index(None if isinstance(value, bool) else value))
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        """``n`` and ``m`` are integers >= 1 by :func:`_integer`'s rule, stored as ``int``s."""
        try:
            for name in ("n", "m"):
                object.__setattr__(self, name, _integer(name, getattr(self, name)))
        except ValueError as exc:
            raise StructuralError(exc) from None
        if min(self.n, self.m) < 1:
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
        return x[..., 1 : 1 + self.n], x[..., 1 + self.n :].reshape(x.shape[:-1] + self._below)

    def entry_views(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`views` of an entries-major ``(n_sequences, ...)`` array.

        Heads are ``(n, ...)`` and what hangs below ``(n, m, ...)`` or
        ``(n, m, 2, ...)``.  Writing to a view writes to ``x``.
        """
        return x[1 : 1 + self.n], x[1 + self.n :].reshape(self._below + x.shape[1:])

    @cached_property
    def _below(self) -> tuple[int, ...]:
        return (self.n, self.m, 2) if self.paired else (self.n, self.m)

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
        exactly as on its own.  The pass runs down axis 0 of an entries-major
        copy, which the ``(k, n_sequences)`` view of an entries-major stack
        makes without a transpose, and returns that copy's ``.T`` view.
        """
        out = np.array(np.asarray(u, dtype=float).T, order="C")
        head, below = self.entry_views(out)
        if self.paired:
            top = np.maximum(below[:, :, 0], below[:, :, 1])
            below -= top[:, :, None]
            # last pair first: the summation order of an infoset-by-infoset walk
            for b in range(self.m - 1, -1, -1):
                head += top[:, b]
            head -= head.max(axis=0)
        else:
            top = np.maximum(head, below.max(axis=1))
            head -= top
            below -= top[:, None]
        out[self.root] = 0.0
        return out.T


def check_simplex(x: np.ndarray) -> bool | np.ndarray:
    """Whether ``x``, or each row of a stack, is a probability vector to 1e-9 per entry and in sum."""
    x = np.asarray(x, dtype=float)
    ok = (x >= -1e-9).all(axis=-1) & (np.abs(x.sum(axis=-1) - 1.0) <= 1e-9)
    return ok if x.ndim == 2 else bool(ok)


# Stacks with contiguous rows at least this many runs wide are scanned down
# axis 0 as one vectorized add per row, where ``np.cumsum`` runs one scalar
# loop per run.  The crossover lies between 192 and 256 (numpy 2.4.6, 2-core
# Xeon, best of 5 on (31, k) stacks: numpy 30.5 against 22.6 us at k = 256,
# 93.8 against 36.8 at 961, and 10.7 against 22.5 at 100).
WIDE = 256


def _cumsum_down(a: np.ndarray) -> np.ndarray:
    """``a.cumsum(axis=0)`` of a 2-D stack: the same sums, in the same order and memory layout.

    A stack whose rows are contiguous and at least ``WIDE`` runs wide is
    scanned as ``len(a) - 1`` row adds into the output.
    """
    if a.shape[1] < WIDE or a.strides[1] != a.itemsize:
        return a.cumsum(axis=0)
    out = np.empty_like(a)
    out[0] = a[0]
    for i in range(1, len(a)):
        np.add(out[i - 1], a[i], out=out[i])
    return out


def _threshold_rows(v: np.ndarray) -> np.ndarray:
    """Sort-and-threshold projection of each vector down axis 0.

    ``v`` is entries-major, ``(n, ...)``: every sort, scan and broadcast runs
    across all the vectors at once.  A vector whose largest entry is at least
    2**53 in magnitude raises ``ValueError``, naming its index along ``v``'s
    last axis (the caller's row).
    """
    n = len(v)
    cols = v.reshape(n, -1)
    ascending = np.sort(cols, axis=0)
    # the rule keeps each vector's largest entry u0 because u0 > u0 - 1;
    # from 2**53 up, u0 - 1 may round back to u0
    top = np.abs(ascending[-1])
    if top.max() >= 2.0**53:
        j = int(top.argmax())
        row = f" row {j % v.shape[-1]}" if v.ndim > 1 else ""
        raise ValueError(f"projection input{row} has largest entry {float(ascending[-1, j])!r}, "
                         "of magnitude >= 2**53, where the threshold rule cannot find its support")
    u = ascending[::-1]
    css = _cumsum_down(u)
    css -= 1.0
    cond = u * np.arange(1.0, n + 1.0)[:, None] > css
    rho = n - 1 - cond[::-1].argmax(axis=0)
    theta = css[rho, np.arange(len(rho))] / (rho + 1.0)
    x = cols - theta
    np.maximum(x, 0.0, out=x)
    return x.reshape(v.shape)


def project_simplex(v) -> np.ndarray:
    """Nearest point of ``v`` on the probability simplex (sort-and-threshold).

    A 2-D ``v`` is projected row by row.  The rule sorts values, not
    indices, so ties cannot change the result: runs are bit-reproducible and
    a row of a stack projects exactly as it does on its own.  The rule runs
    down axis 0 of ``v.T``, so the ``(k, n)`` view of an entries-major stack
    projects across its rows; the result has ``v``'s memory order.  NaN,
    +-inf and a row whose largest entry is at least 2**53 in magnitude raise
    ``ValueError``.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] == 0:
        raise StructuralError("projection input must be a non-empty vector or stack of vectors")
    if not np.isfinite(v).all():
        raise ValueError("projection input must be finite (no NaN/inf)")
    return _threshold_rows(v.T).T


def project_simplex_batch(v: np.ndarray) -> np.ndarray:
    """:func:`project_simplex` of every vector along the last axis, without its shape and finiteness checks.

    A vector whose largest entry is at least 2**53 in magnitude still raises
    ``ValueError``: that check costs no pass of its own.
    """
    return _threshold_rows(np.asarray(v, dtype=float).T).T


def project_simplex_exact(nums: list[list[int]],
                          dens: list[int]) -> tuple[list[list[int]], list[int]]:
    """Exact-rational twin of :func:`project_simplex` on integer numerators.

    Row i of the input is ``nums[i] / dens[i]`` (Python ints, denominators
    positive).  The same sort-and-threshold rule runs row by row on the
    numerators; the scan for the threshold stops at the first entry the
    support excludes.  With rho + 1 entries kept, the threshold and the
    projected row are numerators over ``dens[i] * (rho + 1)``.  Returns
    ``(numerators, denominators)``, not reduced.
    """
    if any(len(row) == 0 for row in nums):
        raise StructuralError("projection input must be a non-empty stack of vectors")
    out, scale = [], []
    for row, den in zip(nums, dens):
        excess, k = -den, 0   # the sum of the k largest numerators, minus den
        for u in sorted(row, reverse=True):
            if u * k <= excess:
                break
            excess += u
            k += 1
        out.append([u * k - excess if u * k > excess else 0 for u in row])
        scale.append(den * k)
    return out, scale


def validate_plan(r: np.ndarray, t: Treeplex) -> bool | np.ndarray:
    """Whether ``r``, or each row of a stack, is a realization plan of ``t``.

    The root is 1 and every flow holds within ``PLAN_FLOW_TOL``; no entry is
    below ``-PLAN_NEG_TOL``.  A row of another length raises ``StructuralError``.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim not in (1, 2) or r.shape[-1] != t.n_sequences:
        raise StructuralError("plan length does not match treeplex")
    root = r[..., t.root]
    head, below = t.views(r)
    if t.paired:
        flow = np.maximum(np.abs(below.sum(axis=-1) - head[..., None]).max(axis=(-2, -1)),
                          np.abs(head.sum(axis=-1) - root))
    else:
        flow = np.abs(head + below.sum(axis=-1) - root[..., None]).max(axis=-1)
    ok = (np.maximum(flow, np.abs(root - 1.0)) <= PLAN_FLOW_TOL) & (r.min(axis=-1) >= -PLAN_NEG_TOL)
    return ok if r.ndim == 2 else bool(ok)


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
        slope = 1.0 + m - 0.5 * np.arange(m + 1)
        self._slope = slope[:, None]
        self._rate_steps = np.tile(np.diff(1.0 / slope, prepend=0.0), n)

    def project(self, v) -> np.ndarray:
        """Nearest realization plan to ``v``; the root entry of ``v`` is ignored.

        A 2-D ``v`` is projected row by row, each row exactly as on its own.
        The projection runs down axis 0 of ``v.T``, so the ``(k, n_sequences)``
        view of an entries-major stack projects across its rows; the result
        has ``v``'s memory order.
        """
        v = np.asarray(v, dtype=float)
        tp = self.treeplex
        if v.ndim not in (1, 2) or v.shape[-1] != tp.n_sequences:
            raise StructuralError("projection input length does not match treeplex")
        if not np.isfinite(v).all():
            raise ValueError("projection input must be finite (no NaN/inf)")
        cols = v.reshape(-1, tp.n_sequences).T
        k = cols.shape[1]
        # every entry is written below, in the memory order of v.T
        x = np.empty_like(cols)
        x[tp.root] = 1.0
        head, below = tp.entry_views(cols)
        out_head, out_below = tp.entry_views(x)
        if not tp.paired:
            blocks = np.concatenate([head[None], below.swapaxes(0, 1)])
            blocks = project_simplex_batch(blocks.T).T
            out_head[...] = blocks[0]
            out_below[...] = blocks[1:].swapaxes(0, 1)
            return x.T.reshape(v.shape)

        p, q = below[:, :, 0], below[:, :, 1]
        # breakpoints t (ascending per offer, led by s = 0) and g_a at each
        t = np.zeros((tp.n, tp.m + 1, k))
        gaps = t[:, 1:]
        np.subtract(p, q, out=gaps)
        np.abs(gaps, out=gaps)
        gaps.sort(axis=1)
        # each offer's sum over its pairs runs along a contiguous last axis,
        # so it is rounded as a row-major stack rounds it
        top = np.empty((tp.n, k, tp.m))
        np.maximum(p, q, out=top.transpose(0, 2, 1))
        g0 = -head - top.sum(axis=2)
        g = g0[:, None] + self._slope * t + 0.5 * np.cumsum(t, axis=1)
        # S at the sorted breakpoints; its slope in lam grows by the change of
        # 1/slope as lam passes each breakpoint of each offer
        g_flat = g.reshape(-1, k)
        lam = np.sort(g_flat, axis=0)
        rate = np.cumsum(self._rate_steps[np.argsort(g_flat, axis=0, kind="stable")], axis=0)
        total = np.zeros(lam.shape)
        total[1:] = np.cumsum(rate[:-1] * (lam[1:] - lam[:-1]), axis=0)
        # total is nondecreasing down a column: lam_star follows its last entry <= 1
        last = (len(lam) - 1 - (total > 1.0).sum(axis=0)) * k + np.arange(k)
        lam_star = lam.take(last) + (1.0 - total.take(last)) / rate.take(last)
        # s_a is convex, so it is the largest of its affine pieces
        s = np.maximum((t + (lam_star - g) / self._slope).max(axis=1), 0.0)
        y = np.minimum(np.maximum((s[:, None] + p - q) / 2.0, 0.0), s[:, None])
        out_head[...] = s
        out_below[:, :, 0] = y
        out_below[:, :, 1] = s[:, None] - y
        return x.T.reshape(v.shape)

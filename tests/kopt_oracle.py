"""Test oracles for the k-opt search, written out in Python: the edge
potential, and the structural checks and segment reversals that a k-opt
action stands for.

A solve never needs these: the kernel scores edges itself, builds only
well-formed actions and applies them itself.  The tests use them to check
what it draws and builds, by replaying each action on the tour it was drawn
from.  Pytest does not collect this module; ``test_mcts.py`` and
``test_acceptance.py`` import it.
"""

import math
from collections.abc import Callable

import numpy as np

from tsplab.geometry import Tour, TspInstance, _require_tour
from tsplab.mcts import MctsState


def omega(state: MctsState, i: int) -> float:
    """Mean weight of edges leaving vertex ``i``."""
    return state._row_sums.item(i) / (state.n - 1)


def scorer(state: MctsState) -> Callable[[int, list[int]], list[float]]:
    """``potentials(v, targets)``: the edge potential ``(v, u)`` for each
    ``u`` in ``targets``, as Python floats, at the current ``M``:

        W[v, u] / omega(v) + alpha * sqrt(ln(M + 1) / (Q[v, u] + 1))

    The same IEEE double arithmetic in the same order as ``pick`` in
    ``_kopt.c``, so the draws over it match the kernel's bit for bit.  The
    returned function reads ``W``, ``Q`` and the row sums live, but fixes
    ``M``; make a new one after ``M`` changes.
    """
    w = state.W.item
    q = state.Q.item
    alpha = state.params.alpha
    bonus = math.log(state.M + 1.0)
    sqrt = math.sqrt

    def potentials(v: int, targets: list[int]) -> list[float]:
        om = omega(state, v)
        return [w(v, u) / om + alpha * sqrt(bonus / (q(v, u) + 1.0)) for u in targets]

    return potentials


class InvalidActionError(ValueError):
    """A k-opt action does not fit the tour it was applied to."""


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def deleted_edges(vertices: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edges ``(a_i, b_i)`` that the action ``vertices`` removes from the tour."""
    return list(zip(vertices[0:-1:2], vertices[1::2]))


def added_edges(vertices: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edges ``(b_i, a_{i+1})`` that the action ``vertices`` adds; the last
    returns to the anchor ``a1``."""
    return list(zip(vertices[1::2], vertices[2::2]))


def validate(vertices: tuple[int, ...], n: int | None = None) -> None:
    """Raise :class:`InvalidActionError` unless ``vertices`` is a closed
    sequence ``(a1, b1, ..., ak, bk, a1)`` with ``k >= 2``, vertices in
    ``range(n)``, no self-loop, no repeated edge, and no edge both deleted
    and added."""
    if len(vertices) < 5 or len(vertices) % 2 == 0:
        raise InvalidActionError("action must be (a1, b1, ..., ak, bk, a1) with k >= 2")
    if vertices[0] != vertices[-1]:
        raise InvalidActionError("action must close at its anchor vertex")
    if n is not None and any(not 0 <= x < n for x in vertices):
        raise InvalidActionError("action vertex out of range")
    deleted = deleted_edges(vertices)
    added = added_edges(vertices)
    dels = {_edge(u, w) for u, w in deleted}
    adds = {_edge(u, w) for u, w in added}
    if any(u == w for u, w in deleted + added):
        raise InvalidActionError("action contains a self-loop edge")
    k = len(vertices) // 2
    if len(dels) != k or len(adds) != k:
        raise InvalidActionError("action repeats an edge")
    if dels & adds:
        raise InvalidActionError("action adds an edge it also deletes")


def apply_kopt(instance: TspInstance, tour: Tour, vertices: tuple[int, ...]) -> Tour:
    """Apply the action ``vertices`` to ``tour`` by replaying its segment
    reversals.

    The action must fit the tour's current orientation: ``b1`` must be the
    successor of ``a1``, and each later ``b_i`` the predecessor of ``a_i``
    at its step.  Raises :class:`InvalidActionError` otherwise.
    """
    _require_tour(instance, tour)
    validate(vertices, n=instance.n)
    base = tour.order
    n = base.shape[0]
    i0 = int(np.nonzero(base == vertices[0])[0][0])
    order = np.concatenate([base[i0:], base[:i0]])
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    if int(order[1]) != vertices[1]:
        raise InvalidActionError("b1 is not the tour successor of the anchor a1")
    for i in range(1, len(vertices) // 2):
        c, bn = vertices[2 * i], vertices[2 * i + 1]
        j = int(pos[c])
        if j < 2 or int(order[j - 1]) != bn:
            raise InvalidActionError(f"edge ({c}, {bn}) is not deletable at step {i + 1}")
        order[1:j] = order[1:j][::-1]
        pos[order[1:j]] = np.arange(1, j)
    return Tour(order)

"""Test oracles for k-opt actions: the structural checks and the segment
reversals that an action stands for, written out in Python.

A solve never needs these: the kernel builds only well-formed actions and
applies them itself.  The tests use them to check what it builds, by
replaying each action on the tour it was drawn from.  Pytest does not
collect this module; ``test_mcts.py`` and ``test_acceptance.py`` import it.
"""

import numpy as np

from tsplab.geometry import Tour, TspInstance, _require_tour
from tsplab.mcts import KoptAction


class InvalidActionError(ValueError):
    """A k-opt action does not fit the tour it was applied to."""


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def deleted_edges(action: KoptAction) -> list[tuple[int, int]]:
    """Edges ``(a_i, b_i)`` that ``action`` removes from the tour."""
    v = action.vertices
    return [(v[2 * i], v[2 * i + 1]) for i in range(action.k)]


def validate(action: KoptAction, n: int | None = None) -> None:
    """Raise :class:`InvalidActionError` unless ``action`` is a closed
    sequence ``(a1, b1, ..., ak, bk, a1)`` with ``k >= 2``, vertices in
    ``range(n)``, no self-loop, no repeated edge, and no edge both deleted
    and added."""
    v = action.vertices
    if len(v) < 5 or len(v) % 2 == 0:
        raise InvalidActionError("action must be (a1, b1, ..., ak, bk, a1) with k >= 2")
    if v[0] != v[-1]:
        raise InvalidActionError("action must close at its anchor vertex")
    if n is not None and any(not 0 <= x < n for x in v):
        raise InvalidActionError("action vertex out of range")
    deleted = deleted_edges(action)
    added = action.added_edges()
    dels = {_edge(u, w) for u, w in deleted}
    adds = {_edge(u, w) for u, w in added}
    if any(u == w for u, w in deleted + added):
        raise InvalidActionError("action contains a self-loop edge")
    if len(dels) != action.k or len(adds) != action.k:
        raise InvalidActionError("action repeats an edge")
    if dels & adds:
        raise InvalidActionError("action adds an edge it also deletes")


def apply_kopt(instance: TspInstance, tour: Tour, action: KoptAction) -> Tour:
    """Apply ``action`` to ``tour`` by replaying its segment reversals.

    The action must fit the tour's current orientation: ``b1`` must be the
    successor of ``a1``, and each later ``b_i`` the predecessor of ``a_i``
    at its step.  Raises :class:`InvalidActionError` otherwise.
    """
    _require_tour(instance, tour)
    validate(action, n=instance.n)
    seq = action.vertices
    base = tour.order
    n = base.shape[0]
    i0 = int(np.nonzero(base == seq[0])[0][0])
    order = np.concatenate([base[i0:], base[:i0]])
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    if int(order[1]) != seq[1]:
        raise InvalidActionError("b1 is not the tour successor of the anchor a1")
    for i in range(1, action.k):
        c, bn = seq[2 * i], seq[2 * i + 1]
        j = int(pos[c])
        if j < 2 or int(order[j - 1]) != bn:
            raise InvalidActionError(f"edge ({c}, {bn}) is not deletable at step {i + 1}")
        order[1:j] = order[1:j][::-1]
        pos[order[1:j]] = np.arange(1, j)
    return Tour(order)

"""The one graph core: trimming, reachability and branching.

A graph is a ``succ`` dict mapping each state to its successors, one entry
per labelled edge, so parallel edges count (with one-letter patterns every
letter is a loop on the single state).

:class:`StateGraph` presents the language of a pattern-only spec over a
finite alphabet (Lind & Marcus §2.2-2.3).  Its states are the (big-1)-letter
words, big the longest pattern length, and letter a labels an edge from s
when no pattern occurs in s + a.  Every window a pattern can see lies in
one edge, so the pattern-free sequences are the labels of walks.
"""

from __future__ import annotations

import itertools

from .words import rotations


def reverse(succ: dict) -> dict:
    pred = {s: [] for s in succ}
    for s, ts in succ.items():
        for t in ts:
            pred[t].append(s)
    return pred


def trim(succ: dict) -> set:
    """The states that start an infinite walk."""
    out_deg = {s: len(ts) for s, ts in succ.items()}
    pred = reverse(succ)
    dead = [s for s, d in out_deg.items() if d == 0]
    alive = set(succ).difference(dead)
    while dead:
        for s in pred[dead.pop()]:
            out_deg[s] -= 1
            if out_deg[s] == 0:
                alive.discard(s)
                dead.append(s)
    return alive


def reach(starts, succ: dict) -> set:
    """The states reachable from ``starts``, which are included."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        for t in succ[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def branches(live, succ: dict) -> bool:
    """Does some live state have two edges into live states?  Where every
    live state has live in- and out-edges, no branching leaves disjoint
    cycles: finitely many bi-infinite walks."""
    return any(sum(t in live for t in succ[s]) > 1 for s in live)


class StateGraph:
    """The graph of a pattern set over a finite alphabet, built once.

    ``fwd`` holds the states that start an infinite walk, ``bwd`` those
    that end a left-infinite one (with an allowlist of tail periods: those
    reachable from an allowed period's cycle), and ``live = fwd & bwd``.
    """

    def __init__(self, matcher, alphabet, big: int, allow=None) -> None:
        self.n = big - 1
        self.allow = allow
        self.delta = {s: {a: (s + (a,))[1:] for a in sorted(alphabet)
                          if not matcher.occurs_in(s + (a,))}
                      for s in itertools.product(sorted(alphabet),
                                                 repeat=self.n)}
        self.succ = {s: list(d.values()) for s, d in self.delta.items()}
        self.fwd = trim(self.succ)
        self.bwd = trim(reverse(self.succ)) if allow is None else reach(
            [s for p in allow for s in self._cycle(p)], self.succ)
        self.live = self.fwd & self.bwd

    def walk(self, s, word):
        """The end state of the walk from s labelled ``word``, or None."""
        for a in word:
            s = self.delta[s].get(a)
            if s is None:
                return None
        return s

    def _cycle(self, period: tuple) -> list:
        """The states of period^inf, first the one a period ends in; empty
        when the cycle misses an edge."""
        s = (period * self.n)[len(period) * self.n - self.n:]
        if s not in self.delta or self.walk(s, period) != s:
            return []
        return [self.walk(s, period[:i]) for i in range(len(period))]

    def word(self, w: tuple) -> bool:
        """Is w a block: the label of a walk from bwd into fwd?"""
        return any(self.walk(s, w) in self.fwd for s in self.bwd)

    def ray(self, period: tuple, transient: tuple) -> bool:
        """Is ...period period transient a left-infinite subblock?"""
        if self.allow is not None and min(rotations(period)) not in self.allow:
            return False
        cycle = self._cycle(period)
        return bool(cycle) and self.walk(cycle[0], transient) in self.fwd

    def one_word(self, w: tuple) -> bool:
        """Is w a block of the one-sided space?  Dropping a prefix keeps a
        one-sided point valid, so w must start a point: it is pattern-free
        and some fwd state ends w or starts with it."""
        if len(w) < self.n:
            return any(t[:len(w)] == w for t in self.fwd)
        s = w[:self.n]
        return s in self.delta and self.walk(s, w[self.n:]) in self.fwd

    def nonempty(self) -> bool:
        return bool(self.live)

    def infinite(self) -> bool:
        return branches(self.live, self.succ)

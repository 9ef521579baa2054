"""The one graph core: trimming, reachability and branching.

A graph is a ``succ`` dict mapping each state to its successors, one entry
per labelled edge, so parallel edges count (with one-letter patterns every
letter is a loop on the single state).

:class:`StateGraph` presents the language of a pattern-only spec over a
finite alphabet (Lind & Marcus §2.2-2.3) by its prefix automaton (Aho &
Corasick 1975): a state is the set of live partial matches, the start is
the empty set, and letter a labels an edge when it completes no pattern.
After big-1 letters, big the longest pattern length, a state depends only
on them, so walks still match pattern-free sequences one to one, and the
size follows the patterns rather than |A|^(big-1).
"""

from __future__ import annotations

from .words import pattern_matches, rotations


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
    """The prefix automaton of a pattern set over a finite alphabet, built
    once in bit-parallel form (Shift-And; Baeza-Yates & Gonnet 1992): a
    state has one bit per pattern cell matching the last letters read, and
    letter a leads to ``((s << 1) | starts) & match[a]`` unless that sets
    a pattern's last bit.  The start state is 0.

    ``fwd`` holds the states that start an infinite walk, ``bwd`` those
    that end a left-infinite one (with an allowlist of tail periods: those
    reachable from an allowed period's cycle), and ``live = fwd & bwd``.
    """

    def __init__(self, patterns, alphabet, big: int, allow=None) -> None:
        self.big = big
        self.allow = allow
        letters = sorted(alphabet)
        cells = {}                    # each distinct cell -> its bits
        starts, finals, bit = 0, 0, 1
        for p in sorted(patterns, key=repr):
            starts |= bit
            for c in p:
                cells[c] = cells.get(c, 0) | bit
                bit <<= 1
            finals |= bit >> 1
        match = {a: sum(b for c, b in cells.items()
                        if pattern_matches((c,), (a,))) for a in letters}
        self.delta, todo = {}, [0]
        while todo:
            s = todo.pop()
            if s not in self.delta:
                grown = (s << 1) | starts
                self.delta[s] = {a: t for a in letters
                                 if not (t := grown & match[a]) & finals}
                todo.extend(self.delta[s].values())
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
        s = self.walk(0, period * self.big)
        if s is None or self.walk(s, period) != s:
            return []
        return [self.walk(s, period[:i]) for i in range(len(period))]

    def word(self, w: tuple) -> bool:
        """Is w a block: the label of a walk from bwd into fwd?"""
        return any(self.walk(s, w) in self.fwd for s in self.bwd)

    def ray(self, ray) -> bool:
        """Is the left ray a left-infinite subblock?"""
        period = ray.period
        if self.allow is not None and min(rotations(period)) not in self.allow:
            return False
        cycle = self._cycle(period)
        return bool(cycle) and self.walk(cycle[0], ray.transient) in self.fwd

    def one_word(self, w: tuple) -> bool:
        """Is w a block of the one-sided space?  A one-sided point has no
        past, so w must label a walk from the start into fwd."""
        return self.walk(0, w) in self.fwd

    def nonempty(self) -> bool:
        return bool(self.live)

    def infinite(self) -> bool:
        return branches(self.live, self.succ)

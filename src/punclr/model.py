"""Action probabilities on LALR(1) transitions.

Counts come from replayable parse histories (the transition sequences of
treebank-consistent derivations).  Unseen transitions get probability mass by
Good-Turing smoothing with frequency-of-frequency statistics pooled over the
whole table: per-context statistics would be hopelessly sparse.  Where the
Turing estimate (r+1)N_{r+1}/N_r is undefined we fall back to a log-log
regression of N_r against r, and below that to one pseudo-traversal shared by
all unseen actions.  Within each (state, lookahead) context the action
probabilities form a simplex and every probability is strictly positive:
structural zeroes never occur, only unification failure can zero a
derivation.
"""
from __future__ import annotations

import heapq
import math
import time
from typing import Iterable, NamedTuple, Optional

from .glr import (
    CLOCK_EVERY,
    ForestLeaf,
    ParseForest,
    derivation_postorder,
    derivation_to_tree,
    derivation_transitions,
    enumerate_derivations,
)
from .lalr import (Action, FieldError, LalrTable, ModelError, action_kind, esc,
                   read_records, unesc)


class TransitionCounts:
    __slots__ = ("counts", "table_hash", "total_histories")

    def __init__(self, counts: dict, table_hash: str, total_histories: float = 0.0):
        self.counts = counts  # (state, lookahead, Action) -> float
        self.table_hash = table_hash
        self.total_histories = total_histories

    def add_occurrences(self, occurrences: dict, histories: int, weight: float):
        """Add `histories` parse histories, each at `weight`, whose
        transitions occur occurrences[key] times in all.  weight is added
        once per occurrence and once per history, so each float sum equals
        train_counts' over the same histories.  Key order is immaterial:
        nothing that reads counts depends on it."""
        counts = self.counts
        for key, n in occurrences.items():
            c = counts.get(key, 0.0)
            for _ in range(n):
                c += weight
            counts[key] = c
        total = self.total_histories
        for _ in range(histories):
            total += weight
        self.total_histories = total


def train_counts(histories: Iterable, table_hash: str, weights=None) -> TransitionCounts:
    """Accumulate transition counts from parse histories, one at a time: the
    reference that training from transition_occurrences is tested against.

    histories: iterable of transition sequences as recorded on derivations.
    weights: optional per-history weights; a treebank sentence that retains m
    consistent derivations contributes each of them at weight 1/m.
    """
    counts: dict = {}
    total = 0.0
    histories = list(histories)
    if weights is None:
        weights = [1.0] * len(histories)
    for history, w in zip(histories, weights):
        total += w
        for state, lookahead, action in history:
            key = (state, lookahead, action)
            counts[key] = counts.get(key, 0.0) + w
    return TransitionCounts(counts, table_hash, total)


# ---------------------------------------------------------------------------
# Good-Turing smoothing

def good_turing_adjusted_count(r: int, freq_of_freq: dict) -> float:
    """The Turing adjusted count r* = (r+1) N_{r+1} / N_r.

    Returns None when the estimate is undefined (N_r or N_{r+1} missing).
    """
    nr = freq_of_freq.get(r, 0)
    nr1 = freq_of_freq.get(r + 1, 0)
    if nr <= 0 or nr1 <= 0:
        return None
    return (r + 1) * nr1 / nr


def _loglog_slope(freq_of_freq: dict):
    """Least-squares slope of log N_r against log r (simple Good-Turing),
    summed in ascending r, so it does not depend on the counts' key order."""
    points = [(math.log(r), math.log(n)) for r, n in sorted(freq_of_freq.items()) if n > 0]
    if len(points) < 2:
        return None
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    denom = sum((x - mx) ** 2 for x, _ in points)
    if denom == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in points) / denom


def _adjusted_count_table(freq_of_freq: dict) -> dict:
    """Adjusted count for each integer frequency up to the maximum seen.

    Turing estimates where defined, regression fallback otherwise, and a
    final cumulative-max pass so a higher raw count never maps to a lower
    adjusted count.
    """
    if not freq_of_freq:
        return {}
    slope = _loglog_slope(freq_of_freq)
    max_r = max(freq_of_freq)
    table = {}
    for r in range(1, max_r + 1):
        adjusted = good_turing_adjusted_count(r, freq_of_freq)
        if adjusted is None:
            if slope is not None and slope < -1:
                adjusted = r * ((r + 1) / r) ** (slope + 1)
            else:
                adjusted = float(r)
        table[r] = adjusted
    running = 0.0
    for r in range(1, max_r + 1):
        running = max(running, table[r])
        table[r] = running
    return table


class ProbModel:
    __slots__ = ("probs", "unseen", "table_hash", "_floor_cache")

    def __init__(self, probs: dict, unseen: dict, table_hash: str):
        self.probs = probs  # (state, lookahead, Action) -> probability
        self.unseen = unseen  # (state, lookahead) -> probability of each unseen action there
        self.table_hash = table_hash
        self._floor_cache = None

    def prob(self, state, lookahead, action) -> float:
        p = self.probs.get((state, lookahead, action))
        if p is not None:
            return p
        p = self.unseen.get((state, lookahead))
        if p is not None:
            return p
        return self._floor()

    def _floor(self) -> float:
        if self._floor_cache is None:
            candidates = list(self.unseen.values()) or list(self.probs.values())
            self._floor_cache = min(candidates)
        return self._floor_cache


def smooth_good_turing(counts: TransitionCounts, table: LalrTable) -> ProbModel:
    """Per-context probabilities over every action in the table.

    Within each (state, lookahead) context, seen actions carry their
    adjusted counts, unseen actions share the reserved unseen mass equally,
    and the whole context renormalizes to sum to one.
    """
    if counts.table_hash and counts.table_hash != table.table_hash():
        raise ModelError(
            "counts were trained against table %s, not %s"
            % (counts.table_hash, table.table_hash())
        )

    raw: dict = {}
    for key, c in counts.counts.items():
        if c > 0:
            raw[key] = c

    freq_of_freq: dict = {}
    for c in raw.values():
        r = max(1, round(c))
        freq_of_freq[r] = freq_of_freq.get(r, 0) + 1
    adjusted_table = _adjusted_count_table(freq_of_freq)

    def adjusted(c: float) -> float:
        if c >= 1:
            lo = int(c)
            hi = lo + 1
            a_lo = adjusted_table.get(lo, float(lo))
            a_hi = adjusted_table.get(hi)
            if a_hi is None:
                # beyond the table: keep the last discount ratio
                a_hi = a_lo * hi / lo if lo else float(hi)
            return a_lo + (c - lo) * (a_hi - a_lo)
        return c * adjusted_table.get(1, 1.0)

    n_unseen = 0
    for (state, label), actions in table.actions.items():
        for action in actions:
            if (state, label, action) not in raw:
                n_unseen += 1
    singletons = freq_of_freq.get(1, 0)
    if n_unseen:
        pseudo = (singletons / n_unseen) if singletons else (1.0 / n_unseen)
    else:
        pseudo = 0.0

    probs: dict = {}
    unseen: dict = {}
    for (state, label), actions in sorted(table.actions.items()):
        weights = []
        for action in sorted(actions):
            c = raw.get((state, label, action), 0.0)
            weights.append(adjusted(c) if c > 0 else pseudo)
        total = sum(weights)
        if total <= 0:
            weights = [1.0] * len(actions)
            total = float(len(actions))
        for action, w in zip(sorted(actions), weights):
            key = (state, label, action)
            p = w / total
            probs[key] = p
            if raw.get(key, 0.0) <= 0:
                unseen[(state, label)] = p
    return ProbModel(probs, unseen, table.table_hash())


# ---------------------------------------------------------------------------
# scoring and n-best extraction

class RankedAnalysis(NamedTuple):
    tree: object
    log_prob: float
    rank: int
    signature: tuple  # nested: (("p", production), child's, ...) or (("t", label),)
    derivation: tuple  # nested (node, bundle index, children), as glr builds them


class RankTimeout(Exception):
    """rank_nbest used up its CPU budget."""


class _Signature:
    """A derivation signature's nested form, (("p", production), child's
    nested form, ...) or (("t", label),), for the comparisons that cannot
    catch a RecursionError themselves (min and sort keys).  A nested
    form is O(arity) to build, where the flat preorder costs O(subtree).  A
    preorder whose productions fix their arity is prefix-free, so nested
    forms compare as the flat ones do.  Past the depth a comparison may
    recurse to, the flat preorders are compared instead.  A holder computes
    its flat form at most once and keeps it, and a comparison with a holder
    that has one goes to the flat forms straight away, rather than recursing
    to the limit again."""

    __slots__ = ("nested", "_flat")

    def __init__(self, nested):
        self.nested = nested
        self._flat = None

    def flat(self) -> tuple:
        if self._flat is None:
            self._flat = _preorder(self.nested)
        return self._flat

    def __eq__(self, other):
        if self._flat is None and other._flat is None:
            try:
                return self.nested == other.nested
            except RecursionError:
                pass
        return self.flat() == other.flat()

    def __lt__(self, other):
        if self._flat is None and other._flat is None:
            try:
                return self.nested < other.nested
            except RecursionError:
                pass
        return self.flat() < other.flat()


def _preorder(nested) -> tuple:
    """The flat preorder of a nested signature, each node's head before its
    children's preorders left to right, without recursion."""
    out = []
    todo = [nested]
    while todo:
        sig = todo.pop()
        out.append(sig[0])
        todo.extend(reversed(sig[1:]))
    return tuple(out)


def rank_nbest(
    forest: ParseForest,
    model: ProbModel,
    n: int,
    include_tag_likelihoods: bool = False,
    budget: Optional[float] = None,
) -> list:
    """The n most probable analyses, exactly.

    Packing keys include state, residue, and pending lookahead, so the score
    of a subderivation is context-free within the forest and a lazy k-best
    over the bundle DAG is exact.  Root entries are pulled one at a time, at
    most 2n+16, each re-scored on arrival along its canonical transition
    sequence (the post-order sum()); the answer is their top n by that
    score, ties broken on the lexicographic derivation signature.

    Pulling stops early once no later root entry can place.  Every term is
    a log probability, at most 0, so any float sum of K terms lies within
    gamma |S| of their exact sum S, gamma = K u / (1 - K u), u = 2^-53
    (Higham 1993): an entry's bottom-up and canonical scores both do.  Root
    entries come in non-increasing bottom-up score, float addition being
    monotone.  So once the next one's bottom-up score b has b (1 - gamma) /
    (1 + gamma) below c, the n-th best canonical score so far, every later
    entry scores below c, too low to reach the signature tie-break.  On
    near-ties the rule does not fire and the 2n+16 cap applies as before.

    A score pass, children first, first keeps each node's best bottom-up
    score and the bundles that reach it.  For n = 1 the rule is then tried
    before any entry past a node's best is built.  A preorder walk down
    the best derivation stops at the first node whose bundles tie, where
    the rule cannot fire.  Without a tie, the walk's nodes get their best
    entries and, children first, second best scores summed as lazy next
    would sum them; root entry 0 is rescored, and when the rule fires it
    is the answer.  Otherwise, and for n > 1, root entries are pulled.

    Entries are built only where the pulls reach.  A heap candidate is its
    score, bundle and child ranks alone.  Its signature is made only when
    it ties in score with the heap's top, and its entry only when it is
    popped.  A node's best entry is built when first wanted, after those
    of its tied bundles' children, whose signatures break the tie.

    budget, when given, is the CPU time in seconds ranking may take; past it
    RankTimeout is raised.
    """
    t0 = time.process_time()
    if n < 1:
        raise ValueError("n must be positive")
    if model.table_hash and model.table_hash != forest.table_hash:
        raise ModelError(
            "model trained against table %s but forest built with %s"
            % (model.table_hash, forest.table_hash)
        )

    def check_budget():
        if budget is not None and time.process_time() - t0 > budget:
            raise RankTimeout("budget exhausted")

    log_probs: dict = {}  # transition -> log probability, each computed once
    # per node: its best bottom-up score and the indices of the bundles
    # that reach it
    best: dict = {}
    ties: dict = {}
    # per node: the entries ranked so far as (score, nested signature,
    # bundle index, child ranks, derivation), from the first time one is
    # wanted; from the first time a second entry is wanted, also the
    # candidate heap of (negated score, bundle index, child ranks); and,
    # keyed (bundle, ranks), each candidate ever pushed or compared, with
    # its _Signature from the first comparison until it leaves the heap
    # (None outside that), so that each is flattened at most once.  All
    # are keyed on the node objects.
    lists: dict = {}
    heaps: dict = {}
    holders: dict = {}
    exhausted: set = set()  # nodes with no further entries

    # the score pass.  A bundle's score is its own log probability, then
    # each child's best score, added in that order, as push adds them
    clock = 1  # steps left until the next clock read
    for node in forest.nodes.values():
        clock -= 1
        if not clock:
            clock = CLOCK_EVERY
            check_budget()
        if type(node) is ForestLeaf:
            score = log_probs.get(node.transition)
            if score is None:
                score = log_probs[node.transition] = math.log(model.prob(*node.transition))
            if include_tag_likelihoods:
                score += math.log(node.likelihood)
            best[node] = score
            lists[node] = [(score, (("t", node.label),), None, (), (node, None, ()))]
            exhausted.add(node)
            continue
        top = -math.inf
        tied = []
        for i, (_, children, transition) in enumerate(node.bundles):
            score = log_probs.get(transition)
            if score is None:
                score = log_probs[transition] = math.log(model.prob(*transition))
            for child in children:
                score += best[child]
            if score > top:
                top = score
                tied = [i]
            elif score == top:
                tied.append(i)
        best[node] = top
        ties[node] = tied

    def holder(node, bi, ranks):
        """The _Signature of node's candidate (bi, ranks), made once: the
        children's entries at ranks must exist."""
        sigs = holders.setdefault(node, {})
        sig = sigs.get((bi, ranks))
        if sig is None:
            production, children, _ = node.bundles[bi]
            sig = sigs[bi, ranks] = _Signature((("p", production), *[
                lists[child][r][1] for child, r in zip(children, ranks)]))
        return sig

    def ensure(node):
        """Give node its best entry, if it has none, after those of its tied
        bundles' children, on an explicit stack: the tied bundle whose first
        candidate has the smallest signature, the lowest index among equal
        signatures, as a heap of all first candidates would pop it."""
        nonlocal clock
        stack = [node]
        while stack:
            node = stack[-1]
            if node in lists:
                stack.pop()
                continue
            bundles = node.bundles
            tied = ties[node]
            waiting = len(stack)
            for i in tied:
                for child in bundles[i][1]:
                    if child not in lists:
                        stack.append(child)
            if len(stack) > waiting:
                continue
            stack.pop()
            clock -= 1
            if not clock:
                clock = CLOCK_EVERY
                check_budget()
            if len(tied) == 1:
                (bi,) = tied
            else:
                bi = min(tied, key=lambda i: holder(node, i, (0,) * len(bundles[i][1])))
            ranks = (0,) * len(bundles[bi][1])
            # no longer a candidate: its flat form, if any, may go
            sig = holders[node].pop((bi, ranks)) if len(tied) > 1 else None
            lists[node] = [_entry(node, best[node], bi, ranks, lists, sig)]

    def push(node, bi, ranks):
        """Push the candidate of bundle bi over the children's entries at
        ranks, unless pushed before or a child has no entry at its rank."""
        sigs = holders[node]
        if (bi, ranks) in sigs:
            return
        sigs[bi, ranks] = None
        _, children, transition = node.bundles[bi]
        score = log_probs[transition]
        for child, r in zip(children, ranks):
            entries = lists[child]
            if r >= len(entries):
                return
            score += entries[r][0]
        heapq.heappush(heaps[node], (-score, bi, ranks))

    def pop(node):
        """Append node's next entry: of the candidates with the highest
        score, the one with the smallest (signature, bundle, ranks), as one
        heap of those keys would pop it.  Signatures are compared only among
        equal scores; the candidates that lose go back on the heap."""
        heap = heaps[node]
        if not heap:
            exhausted.add(node)
            return
        negscore, bi, ranks = top = heapq.heappop(heap)
        group = [top]
        while heap and heap[0][0] == negscore:
            group.append(heapq.heappop(heap))
        for _, i, rs in group:
            for child, r in zip(node.bundles[i][1], rs):
                if not r and child not in lists:
                    ensure(child)
        if len(group) > 1:
            # popped in (bundle, ranks) order, so min keeps the lowest of
            # equal signatures
            _, bi, ranks = top = min(group, key=lambda c: holder(node, c[1], c[2]))
            for c in group:
                if c is not top:
                    heapq.heappush(heap, c)
        sigs = holders[node]
        sig = sigs[bi, ranks]
        sigs[bi, ranks] = None  # popped for good: its flat form, if any, may go
        lists[node].append(_entry(node, -negscore, bi, ranks, lists, sig))

    def start_heap(node):
        """node's candidate heap as it stands once its best entry is taken:
        the first candidate of every other bundle, scored as the score pass
        scored its bundle."""
        best_bi = lists[node][0][2]
        heap = []
        sigs = holders.setdefault(node, {})
        for bi, (_, children, transition) in enumerate(node.bundles):
            ranks = (0,) * len(children)
            sigs.setdefault((bi, ranks))
            if bi != best_bi:
                score = log_probs[transition]
                for child in children:
                    score += best[child]
                heap.append((-score, bi, ranks))
        heapq.heapify(heap)
        heaps[node] = heap

    rescored = []  # (canonical score, _Signature, derivation) per root entry

    def rescore(entry) -> float:
        """Add a root entry to rescored with its canonical score, the log
        probabilities of derivation_transitions(deriv) summed in that order,
        and return that score."""
        _, sig, _, _, deriv = entry
        order = derivation_postorder(deriv)
        canonical = sum([log_probs[node.transition if bi is None else node.bundles[bi][2]]
                         for node, bi, _ in order])
        if include_tag_likelihoods:
            canonical += _leaf_likelihood_sum(order)
        rescored.append((canonical, _Signature(sig), deriv))
        return canonical

    # K: a derivation has at most one transition per node and one tag
    # likelihood per leaf; 8 spare terms raise the threshold by about
    # 16u|b|, more than the 4u|b| its own rounding can take off
    k = 2 * len(forest.nodes) + 8
    gamma = k * 2.0 ** -53 / (1 - k * 2.0 ** -53)
    shrink = (1 - gamma) / (1 + gamma)
    root_node = forest.root
    top_n = []  # min-heap of the n highest canonical scores so far
    if n == 1:
        # try the stop rule on root entry 1 before any entry past a best one
        # is built.  Where a node of the best derivation ties, entry 1 scores
        # as entry 0 by the same sums and the rule cannot fire, so a preorder
        # walk down the best derivation stops at the first tie
        path = []  # its inner nodes
        stack = [root_node]
        while stack:
            clock -= 1
            if not clock:
                clock = CLOCK_EVERY
                check_budget()
            node = stack.pop()
            if type(node) is not ForestLeaf:
                if len(ties[node]) > 1:
                    break
                path.append(node)
                stack += reversed(node.bundles[ties[node][0]][1])
        else:
            # children first, the score lazy next would sum for each node's
            # entry 1, in the same order (-inf for a leaf):
            # the best of another bundle's first candidate and of the best
            # bundle with one child at that child's second best
            path.reverse()
            second = {}
            for node in path:
                clock -= 1
                if not clock:
                    clock = CLOCK_EVERY
                    check_budget()
                (bi,) = ties[node]
                runner = -math.inf
                for i, (_, children, transition) in enumerate(node.bundles):
                    if i != bi:
                        score = log_probs[transition]
                        for child in children:
                            score += best[child]
                        if score > runner:
                            runner = score
                _, children, transition = node.bundles[bi]
                for ci, child in enumerate(children):
                    child_second = second.get(child, -math.inf)
                    if child_second > runner:  # else no sum through it can win
                        score = log_probs[transition]
                        for j, other in enumerate(children):
                            score += child_second if j == ci else best[other]
                        if score > runner:
                            runner = score
                second[node] = runner
            ensure(root_node)  # and so every node of path
            top_n.append(rescore(lists[root_node][0]))
            if second[root_node] * shrink < top_n[0]:
                return _analyses(rescored, n)
    ensure(root_node)
    root = lists[root_node]
    for wanted in range(len(rescored), 2 * n + 16):
        # root entry `wanted` by Huang & Chiang's lazy next on an explicit
        # stack of (node, rank wanted): a node's next entry is popped right
        # after the successors of its last entry are pushed, and each
        # successor may first need one more entry of a child
        stack = [(root_node, wanted)]
        while stack:
            clock -= 1
            if not clock:
                clock = CLOCK_EVERY
                check_budget()
            node, rank = stack[-1]
            if rank < len(lists[node]) or node in exhausted:
                stack.pop()
                continue
            _, _, bi, ranks, _ = lists[node][-1]
            children = node.bundles[bi][1]
            for child, r in zip(children, ranks):
                if r + 1 >= len(lists[child]) and child not in exhausted:
                    stack.append((child, r + 1))
                    break
            else:
                if node not in heaps:
                    start_heap(node)
                for ci in range(len(ranks)):
                    push(node, bi, ranks[:ci] + (ranks[ci] + 1,) + ranks[ci + 1:])
                pop(node)
        if wanted == len(root):
            break
        if len(top_n) == n and root[wanted][0] * shrink < top_n[0]:
            break  # no later root entry can place
        canonical = rescore(root[wanted])
        if len(top_n) < n:
            heapq.heappush(top_n, canonical)
        else:
            heapq.heappushpop(top_n, canonical)
    return _analyses(rescored, n)


def _entry(node, score, bi, ranks, lists, sig) -> tuple:
    """node's entry of bundle bi over its children's entries at ranks, as
    rank_nbest lists it: (score, nested signature, bi, ranks, derivation).
    sig is the candidate's _Signature, if it was made, whose nested form
    the entry shares."""
    production, children, _ = node.bundles[bi]
    below = [lists[child][r] for child, r in zip(children, ranks)]
    nested = sig.nested if sig is not None else (("p", production), *[e[1] for e in below])
    return score, nested, bi, ranks, (node, bi, tuple([e[4] for e in below]))


def _analyses(rescored, n) -> list:
    """The top n of rescored, (canonical score, _Signature, derivation)
    triples, by score and then signature, as RankedAnalysis tuples."""
    rescored.sort(key=lambda e: (-e[0], e[1]))
    trees: dict = {}  # shared by the analyses, whose derivations share subderivations
    return [
        RankedAnalysis(derivation_to_tree(deriv, trees), score, rank, sig.nested, deriv)
        for rank, (score, sig, deriv) in enumerate(rescored[:n], 1)
    ]


def _leaf_likelihood_sum(order) -> float:
    """Sum of the log tag likelihoods on the leaves of a derivation, given
    as derivation_postorder lists it: each subtree's sum is its children's,
    added left to right, on a stack of the sums not yet taken by a parent."""
    sums = []
    for node, bi, children in order:
        if bi is None:
            sums.append(math.log(node.likelihood))
        else:
            cut = len(sums) - len(children)
            subtree = sum(sums[cut:])
            del sums[cut:]
            sums.append(subtree)
    return sums[0]


def extract_histories(forest: ParseForest):
    """Transition sequences of every derivation in a (small) forest, plus
    the per-history weight 1/m: the enumeration that transition_occurrences
    is tested against."""
    derivs = enumerate_derivations(forest)
    histories = [derivation_transitions(d) for d in derivs]
    m = len(histories)
    weights = [1.0 / m] * m if m else []
    return histories, weights


def transition_occurrences(forest: ParseForest, inside: dict) -> dict:
    """How often each transition occurs over all the forest's derivations,
    exactly.

    inside is glr.inside_counts(forest).  With outside(v) the number of ways
    to complete a derivation of the root around node v, a bundle's
    transition occurs outside(node) x prod inside(child) times and a leaf's
    outside(leaf) times.
    """
    occurrences: dict = {}
    outside = dict.fromkeys(forest.nodes.values(), 0)
    outside[forest.root] = 1
    for node in reversed(forest.nodes.values()):
        if type(node) is ForestLeaf:
            t = node.transition
            occurrences[t] = occurrences.get(t, 0) + outside[node]
            continue
        for _, children, transition in node.bundles:
            product = outside[node]
            for c in children:
                product *= inside[c]
            occurrences[transition] = occurrences.get(transition, 0) + product
            for c in children:
                outside[c] += product // inside[c]
    return occurrences


# ---------------------------------------------------------------------------
# serialization

def save_counts(counts: TransitionCounts, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("punclr-counts v1\n")
        fh.write("table %s\n" % counts.table_hash)
        fh.write("histories %r\n" % counts.total_histories)
        for (state, label, action), c in sorted(
            counts.counts.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
        ):
            fh.write(
                "count %d %s %s %d %r\n" % (state, esc(label), action.kind, action.arg, c)
            )


def _probability(field: str) -> float:
    """The read_records converter for a probability: in (0, 1], so every log
    probability rank_nbest sums is finite and at most 0."""
    p = float(field)
    if not 0.0 < p <= 1.0:
        raise FieldError("expected a probability in (0, 1], found %r" % field)
    return p


def save_model(model: ProbModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("punclr-model v1\n")
        fh.write("table %s\n" % model.table_hash)
        for (state, label), p in sorted(model.unseen.items()):
            fh.write("unseen %d %s %r\n" % (state, esc(label), p))
        for (state, label, action), p in sorted(
            model.probs.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
        ):
            fh.write(
                "prob %d %s %s %d %r\n" % (state, esc(label), action.kind, action.arg, p)
            )


def load_model(path) -> ProbModel:
    probs: dict = {}
    unseen: dict = {}
    table_hash = ""
    fields = {"table": (str,), "unseen": (int, unesc, _probability),
              "prob": (int, unesc, action_kind, int, _probability)}
    for record, values in read_records(path, "model", fields, ModelError):
        if record == "table":
            (table_hash,) = values
        elif record == "unseen":
            state, label, p = values
            unseen[(state, label)] = p
        else:
            state, label, kind, arg, p = values
            probs[(state, label, Action(kind, arg))] = p
    if not table_hash:
        raise ModelError("model %s has no table record" % path)
    if not probs and not unseen:
        raise ModelError("model %s has no prob or unseen record" % path)
    return ProbModel(probs, unseen, table_hash)


"""The reference for the canonical walk: a plain breadth-first search.

``shortlex_signatures`` shares no code with ``CanonicalWordSet``: no heap,
no shortlex codes and no table of best words.  It visits words in
shortlex order and extends each whole (excl, dupl) signature once, through
the per-state ``extend_excl_dupl``.  ``least_pairs`` reduces its output to
what the walk keeps, the least word of every (excl, q) pair.
"""

from collections import defaultdict, deque

from crautomata import ExclDuplPair, StateSet, extend_excl_dupl, preimage_table


def shortlex_signatures(dfa, cap):
    """Per defect up to cap, (word, excl, dupl) of each signature's least word.

    Children go on the queue in letter order, so it stays in shortlex order,
    and the prefix of a least word is least: the first word found with a
    signature is its least word.
    """
    table = preimage_table(dfa)
    root = ExclDuplPair(StateSet(), StateSet())
    by_defect = [[] for _ in range(cap + 1)]
    seen = {root}
    queue = deque([((), root)])
    while queue:
        w, pair = queue.popleft()
        by_defect[len(pair.excl)].append((w, pair.excl.mask, pair.dupl.mask))
        for a in range(dfa.m):
            child = extend_excl_dupl(pair, dfa, a, table)
            if len(child.excl) <= cap and child not in seen:
                seen.add(child)
                queue.append((w + (a,), child))
    return by_defect


def least_pairs(signatures):
    """Per defect, (word, excl, held) of every word least for an (excl, q) pair.

    ``signatures`` is what ``shortlex_signatures`` returns.  A word is least
    for (excl, q) when it is the first signature listed with that excl set
    and q in its dupl set; held marks every such q.  The empty word holds
    nothing and is kept, as the root of the walk.
    """
    out = []
    for listed in signatures:
        claimed = defaultdict(int)
        kept = []
        for w, em, dm in listed:
            held = dm & ~claimed[em]
            claimed[em] |= dm
            if held or not w:
                kept.append((w, em, held))
        out.append(kept)
    return out

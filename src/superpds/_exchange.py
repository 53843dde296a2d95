"""Grassmann word rewriting behind the star product in ``kernel``.

Generators are numbered 0..3 for xi1, xi2, eta1, eta2.  A word is in normal
order when its generator ids are strictly increasing, which puts every xi to
the left of every eta.  Rewriting uses

    g g           -> 0              (repeated generator)
    xi_j xi_i     -> -xi_i xi_j     (j > i, same for etas)
    eta_i xi_j    -> h*delta_ij - xi_j eta_i

so the deformed exterior algebra and the plain one share a single reducer;
setting h-degree terms to zero recovers the undeformed signs.
"""

from __future__ import annotations

XI_BITS = 2  # generators 0..1 are xi, 2..3 are eta


def _is_violation(x: int, y: int) -> bool:
    return x >= y


def normal_order_word(word, order_choice=None):
    """Reduce a generator word to normal-ordered terms.

    Returns a dict {(mask, h_power): integer coefficient}.  ``order_choice``
    picks which adjacent violation to rewrite next (given the list of
    violation positions); it exists so confluence can be tested by varying
    the reduction strategy.
    """
    result: dict = {}
    stack = [(tuple(word), 1, 0)]
    while stack:
        w, coeff, h = stack.pop()
        spots = [i for i in range(len(w) - 1) if _is_violation(w[i], w[i + 1])]
        if not spots:
            mask = 0
            for g in w:
                mask |= 1 << g
            key = (mask, h)
            nv = result.get(key, 0) + coeff
            if nv:
                result[key] = nv
            else:
                del result[key]
            continue
        i = spots[0] if order_choice is None else order_choice(spots)
        x, y = w[i], w[i + 1]
        if x == y:
            continue
        # swap branch (always present for x > y)
        stack.append((w[:i] + (y, x) + w[i + 2 :], -coeff, h))
        if x >= XI_BITS and y < XI_BITS and x - XI_BITS == y:
            # eta_i xi_i -> h + swap branch
            stack.append((w[:i] + w[i + 2 :], coeff, h + 1))
    return result


def _mask_word(mask: int, shift: int = 0):
    return tuple(g + shift for g in range(XI_BITS) if mask >> g & 1)


def _build_exchange():
    """Table of eta-block x xi-block exchanges.

    EXCHANGE[(eta_mask, xi_mask)] is a list of (xi_out, eta_out, h_power,
    coefficient) describing the normal-ordered expansion of the word
    eta_block * xi_block.
    """
    table = {}
    for t in range(1 << XI_BITS):
        for u in range(1 << XI_BITS):
            word = _mask_word(t, XI_BITS) + _mask_word(u)
            entries = []
            for (mask, h), coeff in sorted(normal_order_word(word).items()):
                xi_out = mask & ((1 << XI_BITS) - 1)
                eta_out = mask >> XI_BITS
                entries.append((xi_out, eta_out, h, coeff))
            table[(t, u)] = tuple(entries)
    return table


EXCHANGE = _build_exchange()

"""Pure-Python enumeration kernel: the reference implementation.

Enumerates every coefficient vector of F_q[g]/(g^(2^n) - a), keeps the
idempotents, and filters those down to the minimal ones.  It shares no
code with the closed-form construction: it imports only the standard
library, whose ``itertools.product`` walks the vectors.
"""

from itertools import product


def _mul(x, y, q, size, a):
    out = [0] * size
    for i in range(size):
        xi = x[i]
        if xi == 0:
            continue
        for j in range(size):
            yj = y[j]
            if yj == 0:
                continue
            k = i + j
            if k < size:
                out[k] = (out[k] + xi * yj) % q
            else:
                out[k - size] = (out[k - size] + a * xi * yj) % q
    return tuple(out)


def _is_idempotent(v, q, size, a):
    # coefficient-by-coefficient comparison of v*v with v; bail out at
    # the first mismatch, which is what makes full enumeration cheap
    for k in range(size):
        acc = 0
        for i in range(k + 1):
            acc += v[i] * v[k - i]
        wrap = 0
        for i in range(k + 1, size):
            wrap += v[i] * v[size + k - i]
        if (acc + a * wrap) % q != v[k]:
            return False
    return True


def atoms(q, n, a):
    """All minimal idempotents of F_q[g]/(g^(2^n) - a), sorted, as
    tuples of residues.  Minimal means e != 0 and e*f in {0, e} for
    every idempotent f."""
    size = 1 << n
    a %= q
    idems = [
        v for v in product(range(q), repeat=size) if _is_idempotent(v, q, size, a)
    ]
    zero = (0,) * size
    out = []
    for e in idems:
        if e == zero:
            continue
        if all(_mul(e, f, q, size, a) in (zero, e) for f in idems):
            out.append(e)
    return sorted(out)

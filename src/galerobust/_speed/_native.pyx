# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled box scan kernel.

Same contract as ``_pure``; callers guarantee that every intermediate
fits in int64 (see the dispatch logic in the package __init__), so the
C arithmetic here cannot overflow.
"""

from libc.stdlib cimport free, malloc, qsort


cdef long long _gcd(long long a, long long b) noexcept nogil:
    cdef long long t
    if a < 0:
        a = -a
    if b < 0:
        b = -b
    while b != 0:
        t = a % b
        a = b
        b = t
    return a


cdef int _cmp_cand(const void* pa, const void* pb) noexcept nogil:
    cdef const long long* a = <const long long*> pa
    cdef const long long* b = <const long long*> pb
    cdef int i
    for i in range(3):
        if a[i] < b[i]:
            return -1
        if a[i] > b[i]:
            return 1
    return 0


def graver_box_scan(rows, long long radius):
    """u in the box whose kernel vector B u is divisibility-minimal."""
    cdef Py_ssize_t n = len(rows)
    cdef long long* bx = <long long*> malloc(n * sizeof(long long))
    cdef long long* by = <long long*> malloc(n * sizeof(long long))
    if bx == NULL or by == NULL:
        free(bx); free(by)
        raise MemoryError()
    cdef Py_ssize_t i
    for i in range(n):
        bx[i] = rows[i][0]
        by[i] = rows[i][1]

    cdef Py_ssize_t cap = <Py_ssize_t> (2 * radius + 1) * (2 * radius + 1)
    # Candidate records: (1-norm of B u, u1, u2), sorted by norm.
    cdef long long* cand = <long long*> malloc(3 * cap * sizeof(long long))
    if cand == NULL:
        free(bx); free(by)
        raise MemoryError()

    cdef Py_ssize_t m = 0
    cdef long long u1, u2, norm, v
    for u1 in range(-radius, radius + 1):
        for u2 in range(-radius, radius + 1):
            if u1 == 0 and u2 == 0:
                continue
            if _gcd(u1, u2) != 1:
                continue
            norm = 0
            for i in range(n):
                v = bx[i] * u1 + by[i] * u2
                norm += v if v >= 0 else -v
            cand[3 * m] = norm
            cand[3 * m + 1] = u1
            cand[3 * m + 2] = u2
            m += 1

    qsort(cand, m, 3 * sizeof(long long), _cmp_cand)

    # Accepted minimal elements, stored as interleaved (plus, minus) parts.
    cdef Py_ssize_t acc_cap = 64
    cdef Py_ssize_t acc = 0
    cdef long long* accv = <long long*> malloc(acc_cap * 2 * n * sizeof(long long))
    cdef long long* z = <long long*> malloc(2 * n * sizeof(long long))
    if accv == NULL or z == NULL:
        free(bx); free(by); free(cand); free(accv); free(z)
        raise MemoryError()

    out = []
    cdef Py_ssize_t j, g, t
    cdef bint dominated, fits
    cdef long long* newv
    for j in range(m):
        u1 = cand[3 * j + 1]
        u2 = cand[3 * j + 2]
        for i in range(n):
            v = bx[i] * u1 + by[i] * u2
            z[2 * i] = v if v > 0 else 0
            z[2 * i + 1] = -v if v < 0 else 0
        dominated = False
        for g in range(acc):
            fits = True
            for t in range(2 * n):
                if accv[g * 2 * n + t] > z[t]:
                    fits = False
                    break
            if fits:
                dominated = True
                break
        if dominated:
            continue
        if acc == acc_cap:
            acc_cap *= 2
            newv = <long long*> malloc(acc_cap * 2 * n * sizeof(long long))
            if newv == NULL:
                free(bx); free(by); free(cand); free(accv); free(z)
                raise MemoryError()
            for t in range(acc * 2 * n):
                newv[t] = accv[t]
            free(accv)
            accv = newv
        for t in range(2 * n):
            accv[acc * 2 * n + t] = z[t]
        acc += 1
        out.append((u1, u2))

    free(bx)
    free(by)
    free(cand)
    free(accv)
    free(z)
    return out

# cython: language_level=3, boundscheck=False, wraparound=False, initializedcheck=False, cdivision=True
"""Compiled MSD radix kernels over lists of byte-string keys.

Stable, most significant byte first, keys exhausted at the current
position sorting first, insertion sort below the threshold.  Both entry
points return a permutation of indices into the key list as an array('q'):
the same permutation as the argsort of tsokey._pure_sort, which is the
fallback when this module is not built.
"""

from cpython cimport array
from cpython.bytes cimport PyBytes_AS_STRING, PyBytes_Check, PyBytes_GET_SIZE
from libc.stdlib cimport free, malloc, realloc
from libc.string cimport memcmp, memcpy

import array

ctypedef unsigned long long u64
ctypedef long long i64

cdef array.array _I64_TEMPLATE = array.array('q', [])


# ---------------------------------------------------------------------------
# Short keys: exactly eight bytes, treated as one big-endian word.

cdef void _insertion_short(u64* keys, i64* order, Py_ssize_t lo, Py_ssize_t hi) noexcept nogil:
    cdef Py_ssize_t i, j
    cdef i64 idx
    cdef u64 key
    for i in range(lo + 1, hi):
        idx = order[i]
        key = keys[idx]
        j = i - 1
        while j >= lo and keys[order[j]] > key:
            order[j + 1] = order[j]
            j -= 1
        order[j + 1] = idx


cdef void _msd_short(u64* keys, i64* order, i64* aux, Py_ssize_t lo, Py_ssize_t hi,
                     int level, int ins_thr) noexcept nogil:
    cdef Py_ssize_t counts[256]
    cdef Py_ssize_t starts[257]
    cdef Py_ssize_t cursors[256]
    cdef Py_ssize_t i, size, begin, end
    cdef int shift, c, digit0
    while hi - lo > 1 and level < 8:
        size = hi - lo
        if size < ins_thr:
            _insertion_short(keys, order, lo, hi)
            return
        shift = 56 - 8 * level
        for c in range(256):
            counts[c] = 0
        for i in range(lo, hi):
            counts[(keys[order[i]] >> shift) & 0xFF] += 1
        digit0 = (keys[order[lo]] >> shift) & 0xFF
        if counts[digit0] == size:
            level += 1
            continue
        starts[0] = lo
        for c in range(256):
            starts[c + 1] = starts[c] + counts[c]
            cursors[c] = starts[c]
        for i in range(lo, hi):
            c = (keys[order[i]] >> shift) & 0xFF
            aux[cursors[c]] = order[i]
            cursors[c] += 1
        memcpy(order + lo, aux + lo, size * sizeof(i64))
        for c in range(256):
            begin = starts[c]
            end = starts[c + 1]
            if end - begin > 1:
                _msd_short(keys, order, aux, begin, end, level + 1, ins_thr)
        return


def sort_short_keys(list keys, int insertion_threshold=32):
    """Stable ascending index permutation for a list of 8-byte keys."""
    cdef Py_ssize_t n = len(keys)
    cdef array.array order_arr = array.clone(_I64_TEMPLATE, n, zero=False)
    if n == 0:
        return order_arr
    cdef i64* order = order_arr.data.as_longlongs
    cdef u64* ukeys = <u64*>malloc(n * sizeof(u64))
    cdef i64* aux = <i64*>malloc(n * sizeof(i64))
    if ukeys == NULL or aux == NULL:
        free(ukeys)
        free(aux)
        raise MemoryError()
    cdef Py_ssize_t i
    cdef object obj
    cdef const unsigned char* p
    try:
        for i in range(n):
            obj = keys[i]
            if not PyBytes_Check(obj) or PyBytes_GET_SIZE(obj) != 8:
                raise ValueError("short keys must be bytes objects of length 8")
            p = <const unsigned char*>PyBytes_AS_STRING(obj)
            ukeys[i] = ((<u64>p[0]) << 56) | ((<u64>p[1]) << 48) | ((<u64>p[2]) << 40) \
                | ((<u64>p[3]) << 32) | ((<u64>p[4]) << 24) | ((<u64>p[5]) << 16) \
                | ((<u64>p[6]) << 8) | (<u64>p[7])
            order[i] = i
        with nogil:
            _msd_short(ukeys, order, aux, 0, n, 0, insertion_threshold)
    finally:
        free(ukeys)
        free(aux)
    return order_arr


# ---------------------------------------------------------------------------
# Long keys: arbitrary lengths, 257 classes (exhausted first).

cdef struct Range:
    Py_ssize_t lo
    Py_ssize_t hi
    Py_ssize_t pos


cdef int _cmp_long(const unsigned char* pa, Py_ssize_t la,
                   const unsigned char* pb, Py_ssize_t lb) noexcept nogil:
    cdef Py_ssize_t m = la if la < lb else lb
    cdef int r
    if m > 0:
        r = memcmp(pa, pb, m)
        if r != 0:
            return r
    if la < lb:
        return -1
    if la > lb:
        return 1
    return 0


cdef void _insertion_long(const unsigned char** ptrs, Py_ssize_t* lens, i64* order,
                          Py_ssize_t lo, Py_ssize_t hi) noexcept nogil:
    cdef Py_ssize_t i, j, length
    cdef i64 idx
    cdef const unsigned char* p
    for i in range(lo + 1, hi):
        idx = order[i]
        p = ptrs[idx]
        length = lens[idx]
        j = i - 1
        while j >= lo and _cmp_long(ptrs[order[j]], lens[order[j]], p, length) > 0:
            order[j + 1] = order[j]
            j -= 1
        order[j + 1] = idx


cdef int _sort_long(const unsigned char** ptrs, Py_ssize_t* lens, i64* order, i64* aux,
                    Py_ssize_t n, int ins_thr) noexcept nogil:
    """Returns 0 on success, -1 on allocation failure."""
    cdef Py_ssize_t counts[258]
    cdef Py_ssize_t cursors[257]
    cdef Py_ssize_t stack_cap = 1024
    cdef Py_ssize_t stack_len = 0
    cdef Range* stack = <Range*>malloc(stack_cap * sizeof(Range))
    cdef Range* grown
    cdef Py_ssize_t lo, hi, pos, size, i, begin, end
    cdef int c, cls, cls0
    if stack == NULL:
        return -1
    stack[0] = Range(0, n, 0)
    stack_len = 1
    while stack_len > 0:
        stack_len -= 1
        lo = stack[stack_len].lo
        hi = stack[stack_len].hi
        pos = stack[stack_len].pos
        while hi - lo > 1:
            size = hi - lo
            if size < ins_thr:
                _insertion_long(ptrs, lens, order, lo, hi)
                break
            for c in range(258):
                counts[c] = 0
            for i in range(lo, hi):
                cls = 0 if lens[order[i]] <= pos else ptrs[order[i]][pos] + 1
                counts[cls] += 1
            if counts[0] == size:
                break  # identical keys
            cls0 = 0 if lens[order[lo]] <= pos else ptrs[order[lo]][pos] + 1
            if counts[0] == 0 and counts[cls0] == size:
                pos += 1
                continue
            begin = lo
            for c in range(257):
                cursors[c] = begin
                begin += counts[c]
                counts[c] = cursors[c]
            counts[257] = begin
            for i in range(lo, hi):
                cls = 0 if lens[order[i]] <= pos else ptrs[order[i]][pos] + 1
                aux[cursors[cls]] = order[i]
                cursors[cls] += 1
            memcpy(order + lo, aux + lo, size * sizeof(i64))
            for c in range(1, 257):
                begin = counts[c]
                end = counts[c + 1]
                if end - begin > 1:
                    if stack_len == stack_cap:
                        stack_cap *= 2
                        grown = <Range*>realloc(stack, stack_cap * sizeof(Range))
                        if grown == NULL:
                            free(stack)
                            return -1
                        stack = grown
                    stack[stack_len] = Range(begin, end, pos + 1)
                    stack_len += 1
            break
    free(stack)
    return 0


def sort_long_keys(list keys, int insertion_threshold=32):
    """Stable ascending index permutation for a list of byte-string keys."""
    cdef Py_ssize_t n = len(keys)
    cdef array.array order_arr = array.clone(_I64_TEMPLATE, n, zero=False)
    if n == 0:
        return order_arr
    cdef i64* order = order_arr.data.as_longlongs
    cdef const unsigned char** ptrs = <const unsigned char**>malloc(n * sizeof(unsigned char*))
    cdef Py_ssize_t* lens = <Py_ssize_t*>malloc(n * sizeof(Py_ssize_t))
    cdef i64* aux = <i64*>malloc(n * sizeof(i64))
    cdef int status = 0
    cdef Py_ssize_t i
    cdef object obj
    if ptrs == NULL or lens == NULL or aux == NULL:
        free(ptrs)
        free(lens)
        free(aux)
        raise MemoryError()
    try:
        for i in range(n):
            obj = keys[i]
            if not PyBytes_Check(obj):
                raise ValueError("long keys must be bytes objects")
            ptrs[i] = <const unsigned char*>PyBytes_AS_STRING(obj)
            lens[i] = PyBytes_GET_SIZE(obj)
            order[i] = i
        with nogil:
            status = _sort_long(ptrs, lens, order, aux, n, insertion_threshold)
    finally:
        free(ptrs)
        free(lens)
        free(aux)
    if status != 0:
        raise MemoryError()
    return order_arr

# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled simulation kernel.

Same event-driven integer algorithm as snnkit._kernel_py, with C-typed
indices and counters. Potentials stay arbitrary-precision Python ints: a
numerator N over an unreduced leak denominator Q = q**e, in units of 1/L_k
of the neuron's plan scale, with no gcd in `step`. Results are exact and
byte-identical to the pure kernel.
"""

from heapq import heappop, heappush
from math import gcd

VERDICT_NONE = 0
VERDICT_ACCEPT = 1
VERDICT_REJECT = 2
VERDICT_AMBIGUOUS = 3


cdef class Kernel:
    cdef public long long t
    cdef public long long energy
    cdef public long long payload_energy
    cdef public int verdict
    cdef Py_ssize_t n
    cdef int accept_idx
    cdef int reject_idx
    cdef bytes kinds
    cdef bytes gadget
    cdef list tn, rn, mn, md
    cdef tuple scale
    cdef list un, ud
    cdef list last
    cdef list scheds
    cdef list out
    cdef list expl_pos
    cdef set carry
    cdef dict bucket
    cdef list heap

    def __init__(self, plan):
        cdef Py_ssize_t k
        (n, kinds, params, scale, scheds, out, accept_idx, reject_idx, gadget) = plan
        self.n = n
        self.kinds = bytes(kinds)
        self.gadget = bytes(gadget)
        self.tn = [0] * n
        self.rn = [0] * n
        self.mn = [1] * n
        self.md = [1] * n
        for k in range(n):
            if params[k] is not None:
                self.tn[k], self.rn[k], self.mn[k], self.md[k] = params[k]
        self.scale = tuple(scale)
        self.scheds = list(scheds)
        self.out = [list(entries) for entries in out]
        self.accept_idx = accept_idx
        self.reject_idx = reject_idx
        self.t = 0
        self.un = [0] * n
        self.ud = [1] * n
        self.last = [0] * n
        self.carry = set()
        for k in range(n):
            if self.kinds[k] == 0 and self.tn[k] == 0:
                self.carry.add(k)
        self.bucket = {}
        self.heap = []
        self.expl_pos = [0] * n
        for k in range(n):
            if self.kinds[k] == 1:
                first = self._first_fire(k)
                if first is not None:
                    heappush(self.heap, (first, k))
        self.energy = 0
        self.payload_energy = 0
        self.verdict = VERDICT_NONE

    cdef object _first_fire(self, Py_ssize_t k):
        desc = self.scheds[k]
        if desc[0] == "e":
            times = desc[1]
            return times[0] if times else None
        return desc[1]

    cdef object _next_fire(self, Py_ssize_t k, object after):
        cdef Py_ssize_t pos
        desc = self.scheds[k]
        if desc[0] == "e":
            times = desc[1]
            pos = <Py_ssize_t> self.expl_pos[k] + 1
            self.expl_pos[k] = pos
            return times[pos] if pos < len(times) else None
        return after + desc[2]

    def step(self):
        """Run one synchronous step; return the sorted fired indices."""
        cdef Py_ssize_t k
        cdef bint acc = False
        cdef bint rej = False
        t = self.t
        inputs = self.bucket.pop(t, None)
        cand = self.carry
        self.carry = set()
        if inputs:
            cand.update(inputs)
        due = None
        heap = self.heap
        while heap and heap[0][0] == t:
            _, kd = heappop(heap)
            if due is None:
                due = set()
            due.add(kd)
            nxt = self._next_fire(kd, t)
            if nxt is not None:
                heappush(heap, (nxt, kd))
        if due:
            cand.update(due)
        self.t = t + 1
        if not cand:
            return []
        fired = []
        kinds = self.kinds
        un = self.un
        ud = self.ud
        last = self.last
        # kobj keeps the boxed index alive so dict/set lookups reuse it.
        for kobj in sorted(cand):
            k = kobj
            if kinds[k] == 1:
                if due is not None and kobj in due:
                    fired.append(kobj)
                continue
            nu = un[k]
            du = ud[k]
            if nu:
                dt = t - last[k]
                if dt:
                    mn = self.mn[k]
                    if mn == 0:
                        nu = 0
                        du = 1
                    elif mn != self.md[k]:
                        if mn != 1:
                            nu = nu * mn ** dt
                        du = du * self.md[k] ** dt
            if inputs is not None and kobj in inputs:
                nu = nu + inputs[kobj] * du
                if nu <= 0:
                    nu = 0
                    du = 1
            if nu >= self.tn[k] * du:
                fired.append(kobj)
                nu = self.rn[k]
                du = 1
                self.carry.add(kobj)
            un[k] = nu
            ud[k] = du
            last[k] = t
        if fired:
            gadget = self.gadget
            bucket = self.bucket
            for kobj in fired:
                k = kobj
                self.energy += 1
                if gadget[k] == 0:
                    self.payload_energy += 1
                if k == self.accept_idx:
                    acc = True
                elif k == self.reject_idx:
                    rej = True
                for post, delay, w in self.out[k]:
                    arrival = t + delay
                    slot = bucket.get(arrival)
                    if slot is None:
                        bucket[arrival] = {post: w}
                    else:
                        slot[post] = slot.get(post, 0) + w
            if acc:
                self.verdict = VERDICT_AMBIGUOUS if rej else VERDICT_ACCEPT
            elif rej:
                self.verdict = VERDICT_REJECT
        return fired

    def potential_pairs(self):
        """Materialize end-of-last-step potentials for regular neurons.

        Each is a reduced (numerator, denominator) pair in the network's
        own units.
        """
        cdef Py_ssize_t k
        tm = self.t - 1
        pairs = []
        for k in range(self.n):
            if self.kinds[k] == 1:
                pairs.append(None)
                continue
            nu = self.un[k]
            du = self.ud[k] * self.scale[k]
            dt = tm - self.last[k]
            if nu and dt > 0:
                nu = nu * self.mn[k] ** dt
                du = du * self.md[k] ** dt
            g = gcd(nu, du)
            pairs.append((nu // g, du // g))
        return pairs

    def pending_pairs(self):
        """Snapshot of undelivered inputs: {(arrival, idx): (num, den)}, reduced."""
        snapshot = {}
        for arrival, slot in self.bucket.items():
            for k, w in slot.items():
                g = gcd(w, self.scale[k])
                snapshot[(arrival, k)] = (w // g, self.scale[k] // g)
        return snapshot

"""The simulation kernel: the one executable definition of the synchronous step.

This file is plain Python and runs as is. Where Cython is installed,
setup.py also compiles it, with the C types declared in `_kernel.pxd`, into
the extension module snnkit._kernel, which then shadows this file on
import. Both builds run this same source, so their traces are identical.

Every value is a plain int. The plan scales neuron k's threshold, reset and
incoming weights by its L_k (see snnkit.engine), and the kernel keeps its
potential as N/Q in units of 1/L_k. Q is 1 unless the neuron leaks by p/q
with q > 1, when it is q**e for the e steps of decay since the potential
was last reset, clamped or zero; it is never reduced, so no step computes a
gcd. Only `potential_pairs` and `pending_pairs`, which serve inspection,
divide by L_k (and Q), and they return the pairs unreduced: `Simulation`
reduces each one once, by building a `Fraction` from it.

The step loop is event-driven and makes one pass over one map: the slot of
summed deliveries for step t. It branches once per neuron on the plan's rule
code. An integrator (leak 1) adds its input to N and never reads or writes Q
or its last-touched step: Q stays 1 and idle steps change nothing. A
memoryless neuron (leak 0) takes max(0, input) as its potential. A decaying
neuron (any other leak) applies leak**dt to N/Q. Programmed neurons are
skipped. Without a delivery a regular neuron can only fire again when it
just fired and leak*reset >= threshold, tested in scaled integers; since
leak <= 1 its potential never rises while idle, and a zero threshold always
passes. Only those neurons are carried: they join the next step's slot at
weight 0 when nothing is delivered to them. That is exact: max(0, .) leaves
a nonnegative potential unchanged, and a zero potential always has Q = 1,
so the fire test sees the same value. A neuron that fired and is not carried
holds a reset that decay can never lift to its threshold, and its unreduced
Q gives the same N/Q when it is next touched. Zero-threshold neurons are
carried into step 0. Programmed neurons fire as they come off one heap of
the plan's (time, neuron, period) entries; an entry with a period above 0
goes back on at time + period. Deliveries into programmed neurons stay in
the slot as pending state and the pass skips them. The fired indices are
sorted once, after the pass.
A step with no delivery, no carried neuron and no programmed firing returns
at once. Idle decay is applied lazily as leak**dt on the next touch, which
is exact and order-independent.

A step that fires makes one pass over the fired neurons, which books their
spikes and sends their deliveries. The plan numbers the network's distinct
delays as lanes, and each outgoing synapse names its lane, so all of a
step's deliveries along one lane go to the same arrival t + delay. The pass
looks up a lane's slot in the bucket of pending arrivals on the lane's first
delivery of the step, opening it if no earlier step did, and reads every
later delivery's slot from a per-step list by lane. ENERGY and payload
ENERGY grow by the number fired, once per step; only neurons with a role
(gadget, accept or reject) take a further test, to give back a gadget's
payload spike or to mark a verdict.
"""

from heapq import heappop, heappush

VERDICT_NONE = 0
VERDICT_ACCEPT = 1
VERDICT_REJECT = 2
VERDICT_AMBIGUOUS = 3

# A plan's per-neuron rule codes. `step` tests the literals, which compile to
# C comparisons where module globals would not.
RULE_MEMORYLESS = 0
RULE_INTEGRATOR = 1
RULE_DECAYING = 2
RULE_PROGRAMMED = 3


class Kernel:
    """Synchronous stepper over a compiled network plan."""

    def __init__(self, plan):
        """Start at t=0 from an `engine.Plan`."""
        n = plan.n
        kinds = plan.kinds
        self.n = n
        self.kinds = kinds
        self.tn = plan.thresholds
        self.rn = plan.resets
        self.mn = plan.leak_nums
        self.md = plan.leak_dens
        self.scale = plan.scale
        self.delays = plan.delays
        self.out = plan.out
        self.accept_idx = plan.accept_idx
        self.reject_idx = plan.reject_idx
        self.roles = plan.roles
        self.t = 0
        self.un = [0] * n
        self.ud = [1] * n
        self.last = [0] * n
        # Zero-threshold neurons fire unconditionally; seed them as candidates.
        self.carry = {k for k, th in enumerate(self.tn) if not th and kinds[k] != RULE_PROGRAMMED}
        self.bucket = {}
        self.heap = list(plan.spikes)
        self.energy = 0
        self.payload_energy = 0
        self.verdict = VERDICT_NONE

    def step(self):
        """Run one synchronous step; return the sorted fired indices."""
        t = self.t
        self.t = t + 1
        inputs = self.bucket.pop(t, None)
        carry = self.carry
        if carry:
            if inputs is None:
                inputs = dict.fromkeys(carry, 0)
            else:
                for k in carry:
                    if k not in inputs:
                        inputs[k] = 0
            carry.clear()
        heap = self.heap
        if inputs is None and not (heap and heap[0][0] == t):
            return ()
        fired = []
        while heap and heap[0][0] == t:
            _, k, period = heappop(heap)
            fired.append(k)
            if period:
                heappush(heap, (t + period, k, period))
        if inputs is not None:
            kinds = self.kinds
            tn = self.tn
            rn = self.rn
            mn = self.mn
            md = self.md
            un = self.un
            ud = self.ud
            last = self.last
            for k, w in inputs.items():
                rule = kinds[k]
                if rule == 1:  # RULE_INTEGRATOR: Q stays 1, idle steps change nothing
                    nu = un[k] + w
                    if nu < 0:
                        nu = 0
                    if nu >= tn[k]:
                        fired.append(k)
                        nu = rn[k]
                        if nu >= tn[k]:
                            carry.add(k)
                    un[k] = nu
                elif rule == 0:  # RULE_MEMORYLESS
                    nu = w if w > 0 else 0
                    if nu >= tn[k]:
                        fired.append(k)
                        nu = rn[k]
                        if not tn[k]:
                            carry.add(k)
                    un[k] = nu
                    last[k] = t
                elif rule == 2:  # RULE_DECAYING
                    nu = un[k]
                    du = ud[k]
                    if nu:
                        # A nonzero potential was set on an earlier step, so dt >= 1.
                        dt = t - last[k]
                        m = mn[k]
                        if m != 1:
                            nu *= m ** dt
                        du *= md[k] ** dt
                    nu += w * du
                    if nu <= 0:
                        nu = 0
                        du = 1
                    if nu >= tn[k] * du:
                        fired.append(k)
                        nu = rn[k]
                        du = 1
                        if nu * mn[k] >= tn[k] * md[k]:
                            carry.add(k)
                    un[k] = nu
                    ud[k] = du
                    last[k] = t
        if fired:
            fired.sort()
            n_fired = len(fired)
            self.energy += n_fired
            payload = n_fired
            roles = self.roles
            out = self.out
            delays = self.delays
            bucket = self.bucket
            # Each lane's slot for this step's arrival t + delays[lane], looked
            # up on the lane's first delivery and then read by index.
            slots = [None] * len(delays)
            acc = False
            rej = False
            for k in fired:
                role = roles[k]
                if role:  # +1 for a gadget neuron, +2 for the accept or reject neuron
                    if role & 1:
                        payload -= 1
                    if role & 2:
                        if k == self.accept_idx:
                            acc = True
                        else:
                            rej = True
                for post, lane, w in out[k]:
                    slot = slots[lane]
                    if slot is None:
                        arrival = t + delays[lane]
                        slot = bucket.get(arrival)
                        if slot is None:
                            slots[lane] = bucket[arrival] = {post: w}
                            continue
                        slots[lane] = slot
                    slot[post] = slot.get(post, 0) + w
            self.payload_energy += payload
            if acc:
                self.verdict = VERDICT_AMBIGUOUS if rej else VERDICT_ACCEPT
            elif rej:
                self.verdict = VERDICT_REJECT
        return fired

    def potential_pairs(self):
        """Materialize end-of-last-step potentials for regular neurons.

        Each is an unreduced (numerator, denominator > 0) pair in the
        network's own units: N and Q·L_k, brought to the last step.
        """
        tm = self.t - 1
        pairs = []
        for k in range(self.n):
            if self.kinds[k] == RULE_PROGRAMMED:
                pairs.append(None)
                continue
            nu = self.un[k]
            du = self.ud[k] * self.scale[k]
            dt = tm - self.last[k]
            if nu and dt > 0:
                nu *= self.mn[k] ** dt
                du *= self.md[k] ** dt
            pairs.append((nu, du))
        return pairs

    def pending_pairs(self):
        """Snapshot of undelivered inputs: {(arrival, idx): (w, L_k)}, unreduced."""
        snapshot = {}
        for arrival, slot in self.bucket.items():
            for k, w in slot.items():
                snapshot[(arrival, k)] = (w, self.scale[k])
        return snapshot

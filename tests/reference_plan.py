"""Reference plan builder: `engine.build_plan` written the plain way.

It builds each field with one comprehension or loop and makes the plan
through `Plan`'s own constructor. `build_plan` skips that constructor and
some of these passes for speed; the tests require both to give equal plans
field by field, or to raise the same exception, for every network,
validated or not.

On an unvalidated network this fixes what `build_plan` does with ids the
network lists twice (a neuron id that is also a programmed id): `ids`
keeps both, `index` names the later one, and the programmed rule wins
there. A gadget tag or verdict id the network lacks: a tag is ignored, a
verdict id raises KeyError.
"""

from math import lcm

from snnkit._kernel import RULE_DECAYING, RULE_INTEGRATOR, RULE_MEMORYLESS, RULE_PROGRAMMED
from snnkit.engine import Plan
from snnkit.model import ExplicitSchedule, Network


def reference_spike_heap(programmed, index) -> tuple:
    spikes = []
    for name, sched in programmed.items():
        k = index[name]
        if isinstance(sched, ExplicitSchedule):
            spikes += [(t, k, 0) for t in sched.times]
        else:
            spikes.append((sched.offset, k, sched.period))
    spikes.sort()
    return tuple(spikes)


def reference_build_plan(network: Network) -> Plan:
    ids = sorted([spec.id for spec in network.neurons] + list(network.programmed))
    index = {name: k for k, name in enumerate(ids)}
    n = len(ids)
    kinds = [0] * n
    thresholds = [0] * n
    resets = [0] * n
    leak_nums = [1] * n
    leak_dens = [1] * n
    scale = [1] * n
    out: list[list[tuple]] = [[] for _ in range(n)]
    for syn in network.synapses:
        den = syn.weight.denominator
        if den != 1:
            post = index[syn.post]
            scale[post] = lcm(scale[post], den)
    for spec in network.neurons:
        k = index[spec.id]
        tn, td = spec.threshold.as_integer_ratio()
        rn, rd = spec.reset.as_integer_ratio()
        L = scale[k]
        if L % td or L % rd:
            L = scale[k] = lcm(L, td, rd)
        thresholds[k] = tn * (L // td)
        resets[k] = rn * (L // rd)
        m, md = spec.leak.as_integer_ratio()
        leak_nums[k], leak_dens[k] = m, md
        kinds[k] = RULE_MEMORYLESS if m == 0 else RULE_INTEGRATOR if m == md else RULE_DECAYING
    for name in network.programmed:
        kinds[index[name]] = RULE_PROGRAMMED
    accept_idx = index[network.accept] if network.accept is not None else -1
    reject_idx = index[network.reject] if network.reject is not None else -1
    roles = [1 if name in network.gadget_tags else 0 for name in ids]
    for k in (accept_idx, reject_idx):
        if k >= 0:
            roles[k] |= 2
    lanes: dict[int, int] = {}
    for syn in network.synapses:
        post = index[syn.post]
        num, den = syn.weight.as_integer_ratio()
        lane = lanes.get(syn.delay)
        if lane is None:
            lane = lanes[syn.delay] = len(lanes)
        out[index[syn.pre]].append((post, lane, num * (scale[post] // den)))
    return Plan(
        ids=tuple(ids),
        n=n,
        kinds=tuple(kinds),
        thresholds=tuple(thresholds),
        resets=tuple(resets),
        leak_nums=tuple(leak_nums),
        leak_dens=tuple(leak_dens),
        scale=tuple(scale),
        spikes=reference_spike_heap(network.programmed, index),
        delays=tuple(lanes),
        out=tuple(tuple(entries) for entries in out),
        accept_idx=accept_idx,
        reject_idx=reject_idx,
        roles=tuple(roles),
        network=network,
        index=index,
    )

"""snnkit: a deterministic spiking-network machine simulator and toolkit.

Exact-rational leaky integrate-and-fire semantics with accept/reject
halting, resource metering (time, space, energy), reusable gadget circuits
(constant firer, clock, temporal numbers, timer, meter), instance-to-network
compilers for array search, and a resource-bounded oracle/host harness.
"""

from .arraysearch import (
    ArrayInstance,
    CompiledSearch,
    compile_search_embedded,
    compile_search_full_input,
    compile_search_value_input,
    contains_target,
)
from .engine import (
    ACCEPT,
    AMBIGUOUS,
    REJECT,
    TIMEOUT,
    NoVerdictNeuronError,
    ResourceReport,
    RunLimits,
    Simulation,
    Trace,
    available_backends,
    render_raster,
    run,
)
from .gadgets import (
    Fragment,
    attach_meter,
    attach_timer,
    make_clock,
    make_constant_firer,
    make_number,
    merge,
)
from .harness import (
    ACCEPTED,
    PROMISE_VIOLATED,
    REJECTED,
    Decision,
    Domain,
    GeneratorCost,
    Instrument,
    OracleAnswer,
    ResourceBound,
    ResourceBounds,
    ResourceCaps,
    generate_and_decide,
    network_halting_oracle,
    verify_equivalence,
)
from .hostprog import HostProgramError, HostResult, host_run
from .model import (
    ExplicitSchedule,
    InvalidNetworkError,
    Network,
    NetworkBuilder,
    NeuronSpec,
    PeriodicSchedule,
    SynapseSpec,
    check_network,
    one_shot,
    validate_network,
)
from .randnet import random_network, sparse_benchmark_network
from .snnfmt import (
    NetworkFormatError,
    parse_network,
    parse_port_bindings,
    serialize_network,
    serialize_port_bindings,
)

__version__ = "0.1.0"

"""The machine catalog: every named figure configuration by name.

The paper's evaluation (Section 6) names a small machine space: the 6-wide
baseline, the four Figure 6 mini-graph machines (ALU pipelines, pair-wise
collapsing, sliding-window scheduler) and the Figure 8 reduced-resource
variants (shrunken register files, narrower pipelines, a pipelined
scheduler).  This module names each of them so that grid axes and tests can
refer to machines declaratively instead of re-deriving ad-hoc constructor
chains.

Entries are factories (configs are cheap frozen values); look one up with
:func:`machine_config` and enumerate the space with :func:`machine_names`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .config import ConfigError, MachineConfig, baseline_config, \
    integer_memory_minigraph_config, integer_minigraph_config

MachineFactory = Callable[[], MachineConfig]


def _register_file(total: int) -> MachineFactory:
    return lambda: baseline_config().with_physical_registers(total)


#: Name -> factory.  The order is the order listings and tests walk.
MACHINE_CATALOG: Dict[str, MachineFactory] = {
    # §6 baseline: 6-wide, 128 ROB, 50 IQ, 64 LSQ, 164 registers.
    "baseline": baseline_config,
    # Figure 6: two plain ALUs replaced with 4-stage ALU pipelines, with
    # pair-wise collapsing and/or the sliding-window scheduler.
    "int": integer_minigraph_config,
    "int+collapse": lambda: integer_minigraph_config(collapsing=True),
    "int-mem": integer_memory_minigraph_config,
    "int-mem+collapse":
        lambda: integer_memory_minigraph_config(collapsing=True),
    # Figure 8 (top): smaller physical register files.
    **{f"prf{total}": _register_file(total) for total in (164, 144, 124, 104)},
    # Figure 8 (bottom): the full-bandwidth reference point, a 4-wide
    # machine, a 4-wide front end keeping six execution units, and a
    # pipelined 2-cycle wake-up/select scheduler.
    "6-wide": baseline_config,
    "4-wide":
        lambda: baseline_config().with_width(4, execute_width=4, load_ports=1),
    "4-wide+6-exec":
        lambda: baseline_config().with_width(4, execute_width=6, load_ports=2),
    "2-cycle-sched": lambda: baseline_config().with_scheduler_latency(2),
}


def machine_names() -> List[str]:
    """All catalog machine names, in catalog order."""
    return list(MACHINE_CATALOG)


def machine_config(name: str) -> MachineConfig:
    """Build the named machine configuration."""
    try:
        factory = MACHINE_CATALOG[name]
    except KeyError:
        known = ", ".join(MACHINE_CATALOG)
        raise ConfigError(f"unknown machine {name!r}; catalog has: {known}") \
            from None
    return factory()

"""The four machines of the paper, as a registry of :class:`Machine` presets."""

from __future__ import annotations

from typing import Callable

from repro.errors import MachineNotFoundError
from repro.machines.machine import Machine
from repro.simnet.presets import (
    altix_topology,
    hypothetical_cluster_topology,
    opteron_cluster_topology,
    pentium3_cluster_topology,
)
from repro.simproc.presets import itanium2_1600, opteron_2000, pentium3_1400


def pentium3_myrinet() -> Machine:
    """The Intel Pentium-3 / Myrinet 2000 validation cluster (Table 1).

    64 dual-processor nodes, 1.4 GHz Pentium III, GNU C 2.96 ``-O1``,
    x87 floating point; the paper measures 110 MFLOPS achieved for the
    50x50x50 cells-per-processor problem.
    """
    return Machine(
        name="pentium3-myrinet",
        description="64 x dual Intel Pentium III 1.4GHz, Myrinet 2000 (Table 1)",
        processor=pentium3_1400(),
        topology=pentium3_cluster_topology(),
        paper_flop_rate_mflops=110.0,
        noise_seed=101,
    )


def opteron_gige() -> Machine:
    """The AMD Opteron / Gigabit Ethernet validation cluster (Table 2).

    16 dual-processor nodes, 2 GHz Opteron, GNU C 3.4.4 ``-O1
    -mfpmath=387``; the paper measures 350 MFLOPS achieved.
    """
    return Machine(
        name="opteron-gige",
        description="16 x dual AMD Opteron 2GHz, Gigabit Ethernet (Table 2)",
        processor=opteron_2000(),
        topology=opteron_cluster_topology(),
        paper_flop_rate_mflops=350.0,
        noise_seed=202,
    )


def altix_itanium2() -> Machine:
    """The SGI Altix 56-way Itanium-2 shared-memory system (Table 3).

    A single 56-processor node with the NUMAlink-4 interconnect, Intel C
    8.1 ``-O1``; the paper measures 225 MFLOPS achieved.
    """
    return Machine(
        name="altix-itanium2",
        description="SGI Altix, 56 x Intel Itanium-2 1.6GHz, NUMAlink 4 (Table 3)",
        processor=itanium2_1600(),
        topology=altix_topology(),
        paper_flop_rate_mflops=225.0,
        noise_seed=303,
        # The single shared-memory node shows slightly larger run-to-run
        # variation in the paper (positive errors up to 8%).
        compute_jitter=0.012,
        network_jitter=0.03,
    )


def hypothetical_opteron_myrinet() -> Machine:
    """The hypothetical system of the speculative study (Figures 8-9).

    The 2-way Opteron SMP node architecture combined with the Myrinet 2000
    communication model, scaled to 8000 processors; the paper evaluates it
    at a fixed achieved rate of 340 MFLOPS (and +25 %/+50 % upgrades).
    """
    return Machine(
        name="hypothetical-opteron-myrinet",
        description="Hypothetical 8000-processor 2-way Opteron SMP cluster "
                    "with the Myrinet 2000 communication model (Section 6)",
        processor=opteron_2000(),
        topology=hypothetical_cluster_topology(),
        paper_flop_rate_mflops=340.0,
        fixed_flop_rate_mflops=340.0,
        noise_seed=404,
    )


def hypothetical_opteron_myrinet_1ns() -> Machine:
    """The hypothetical cluster on a ~1 ns dyadic time grid.

    The same 8000-processor Opteron/Myrinet system as
    :func:`hypothetical_opteron_myrinet`, but with every modelled duration
    (compute charges, wire times, CPU overheads, collective costs) snapped
    to an exact binary multiple of ``2**-30`` s (≈ 0.93 ns) via
    :meth:`~repro.machines.machine.Machine.quantized`.  The tick is far
    below every modelled cost, so run times are physically
    indistinguishable from the continuous parent — but the shared dyadic
    timebase makes the max-plus replay exact integer arithmetic, which is
    what lets the steady-state tier (:mod:`repro.simmpi.steady`) resolve
    long periodic pipelines in O(period) with a bit-identical guarantee.
    The huge-N ``steady-scaling`` study runs on this machine.
    """
    machine = hypothetical_opteron_myrinet().quantized(
        time_quantum=2.0 ** -30,
        name="hypothetical-opteron-myrinet-1ns",
        description="Hypothetical 8000-processor 2-way Opteron SMP cluster "
                    "with the Myrinet 2000 communication model, on a 2^-30 s "
                    "(~1ns) dyadic time grid (steady-state tier)")
    machine.noise_seed = 505
    return machine


#: Registry of machine presets keyed by name.
MACHINE_PRESETS: dict[str, Callable[[], Machine]] = {
    "pentium3-myrinet": pentium3_myrinet,
    "opteron-gige": opteron_gige,
    "altix-itanium2": altix_itanium2,
    "hypothetical-opteron-myrinet": hypothetical_opteron_myrinet,
    "hypothetical-opteron-myrinet-1ns": hypothetical_opteron_myrinet_1ns,
}

#: Short aliases accepted by :func:`get_machine` and the CLI.
MACHINE_ALIASES: dict[str, str] = {
    "pentium3": "pentium3-myrinet",
    "p3": "pentium3-myrinet",
    "table1": "pentium3-myrinet",
    "opteron": "opteron-gige",
    "table2": "opteron-gige",
    "altix": "altix-itanium2",
    "itanium2": "altix-itanium2",
    "table3": "altix-itanium2",
    "hypothetical": "hypothetical-opteron-myrinet",
    "speculative": "hypothetical-opteron-myrinet",
    "hypothetical-1ns": "hypothetical-opteron-myrinet-1ns",
    "steady": "hypothetical-opteron-myrinet-1ns",
}


def preset_name(name: str) -> str:
    """The preset a machine name or alias names (case-insensitive)."""
    key = name.lower()
    return MACHINE_ALIASES.get(key, key)


def get_machine(name: str) -> Machine:
    """Instantiate a machine preset by name or alias."""
    key = preset_name(name)
    try:
        factory = MACHINE_PRESETS[key]
    except KeyError:
        raise MachineNotFoundError(
            f"unknown machine {name!r}; available: {sorted(MACHINE_PRESETS)} "
            f"(aliases: {sorted(MACHINE_ALIASES)})") from None
    return factory()

"""Parser and serialiser for the textual HMCL hardware description format.

The format mirrors Figure 7 of the paper: a ``hardware`` object with a
``cpu`` section listing clc operation times, an ``mpi`` section with three
A-E parameter groups, and a ``meta`` section.  As in the original HMCL
scripts, cpu times and the mpi ``B``/``D`` intercepts are written in
**microseconds**, the ``C``/``E`` slopes in microseconds per byte and the
break point ``A`` in bytes; the in-memory model uses SI seconds throughout.

Example::

    hardware PentiumIII_Myrinet {
        meta {
            description = "64 x dual Pentium III, Myrinet 2000";
            processors_per_node = 2;
        }
        cpu achieved-rate {
            AFDG = 0.00909;   # usec per floating point operation
            MFDG = 0.00909;
            DFDG = 0.00909;
            IFBR = 0.0;
            LFOR = 0.0;
        }
        mpi {
            send     { A = 16384; B = 2.70; C = 0.00045; D = 18.0; E = 0.0042; }
            recv     { A = 16384; B = 3.10; C = 0.00080; D = 20.0; E = 0.0046; }
            pingpong { A = 16384; B = 21.4; C = 0.00860; D = 56.0; E = 0.0084; }
        }
    }
"""

from __future__ import annotations

import re

from repro import units
from repro.core.clc import ALL_MNEMONICS
from repro.core.hmcl.model import CpuCostModel, HardwareModel, MpiCostModel
from repro.errors import HmclSyntaxError
from repro.profiling.curvefit import PiecewiseLinearModel

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*|//[^\n]*)
  | (?P<number>[-+]?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<string>"[^"]*")
  | (?P<punct>[{}=;])
""", re.VERBOSE)


def _tokenise(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise HmclSyntaxError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = match.end()
        if match.lastgroup in ("ws", "comment"):
            continue
        tokens.append(match.group())
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> str | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise HmclSyntaxError("unexpected end of HMCL input")
        self.index += 1
        return token

    def expect(self, expected: str) -> str:
        token = self.next()
        if token != expected:
            raise HmclSyntaxError(f"expected {expected!r}, found {token!r}")
        return token

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)


def _parse_value(token: str) -> float | str:
    if token.startswith('"'):
        return token.strip('"')
    try:
        return float(token)
    except ValueError as exc:
        raise HmclSyntaxError(f"expected a number or string, found {token!r}") from exc


def _parse_assignments(stream: _TokenStream) -> dict[str, float | str]:
    """Parse ``{ key = value; ... }``."""
    stream.expect("{")
    values: dict[str, float | str] = {}
    while stream.peek() != "}":
        key = stream.next()
        stream.expect("=")
        values[key] = _parse_value(stream.next())
        if stream.peek() == ";":
            stream.next()
    stream.expect("}")
    return values


def _parse_mpi_section(stream: _TokenStream) -> MpiCostModel:
    stream.expect("{")
    groups: dict[str, PiecewiseLinearModel] = {}
    while stream.peek() != "}":
        name = stream.next().lower()
        raw = _parse_assignments(stream)
        try:
            groups[name] = PiecewiseLinearModel(
                A=float(raw["A"]),
                B=float(raw["B"]) * units.USEC,
                C=float(raw["C"]) * units.USEC,
                D=float(raw["D"]) * units.USEC,
                E=float(raw["E"]) * units.USEC,
            )
        except KeyError as exc:
            raise HmclSyntaxError(f"mpi group {name!r} missing parameter {exc}") from exc
    stream.expect("}")
    for required in ("send", "recv", "pingpong"):
        if required not in groups:
            raise HmclSyntaxError(f"mpi section missing the {required!r} group")
    return MpiCostModel(send=groups["send"], recv=groups["recv"],
                        pingpong=groups["pingpong"])


def parse_hmcl(text: str) -> HardwareModel:
    """Parse an HMCL hardware object from text."""
    stream = _TokenStream(_tokenise(text))
    stream.expect("hardware")
    name = stream.next()
    stream.expect("{")

    cpu: CpuCostModel | None = None
    mpi: MpiCostModel | None = None
    meta: dict[str, float | str] = {}

    while stream.peek() != "}":
        section = stream.next().lower()
        if section == "meta":
            meta = _parse_assignments(stream)
        elif section == "cpu":
            source = "manual"
            if stream.peek() not in ("{",):
                source = stream.next()
            raw = _parse_assignments(stream)
            costs = {}
            for mnemonic, value in raw.items():
                if mnemonic.upper() not in ALL_MNEMONICS:
                    raise HmclSyntaxError(f"unknown clc mnemonic in cpu section: {mnemonic}")
                costs[mnemonic.upper()] = float(value) * units.USEC
            cpu = CpuCostModel(op_costs=costs, source=source)
        elif section == "mpi":
            mpi = _parse_mpi_section(stream)
        else:
            raise HmclSyntaxError(f"unknown HMCL section {section!r}")
    stream.expect("}")
    if not stream.at_end():
        raise HmclSyntaxError(f"trailing tokens after hardware object: {stream.peek()!r}")

    if cpu is None:
        raise HmclSyntaxError(f"hardware object {name!r} has no cpu section")
    if mpi is None:
        raise HmclSyntaxError(f"hardware object {name!r} has no mpi section")
    return HardwareModel(
        name=name,
        cpu=cpu,
        mpi=mpi,
        processors_per_node=int(meta.get("processors_per_node", 2)),
        description=str(meta.get("description", "")),
    )


def format_hmcl(model: HardwareModel) -> str:
    """Render a :class:`HardwareModel` as HMCL text for reading.

    Costs are printed in microseconds and every value to six significant
    digits (``.6g``), so parsing the text back gives the structure and
    approximately the values, not the model bit for bit.
    The exact, persisted form of a machine's campaign results is the
    pickled :class:`~repro.experiments.diskcache.HardwareStore` entry.
    """
    lines = [f"hardware {model.name} {{"]
    lines.append("    meta {")
    if model.description:
        lines.append(f'        description = "{model.description}";')
    lines.append(f"        processors_per_node = {model.processors_per_node};")
    lines.append("    }")
    lines.append(f"    cpu {model.cpu.source} {{")
    for mnemonic in ALL_MNEMONICS:
        if mnemonic in model.cpu.op_costs:
            value = model.cpu.op_costs[mnemonic] / units.USEC
            lines.append(f"        {mnemonic} = {value:.6g};")
    lines.append("    }")
    lines.append("    mpi {")
    for group_name in ("send", "recv", "pingpong"):
        params = getattr(model.mpi, group_name)
        lines.append(
            f"        {group_name} {{ A = {params.A:.6g}; "
            f"B = {params.B / units.USEC:.6g}; C = {params.C / units.USEC:.6g}; "
            f"D = {params.D / units.USEC:.6g}; E = {params.E / units.USEC:.6g}; }}")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"

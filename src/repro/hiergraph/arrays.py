"""Array discovery by name clustering.

RTL register arrays and buses survive synthesis as families of names
like ``data_reg[7]`` or ``data_reg_7``.  Gseq construction clusters
flop instances and port bits by these patterns (paper Sect. IV-D,
step 2) to recover the multi-bit components whose widths drive the
dataflow-affinity metric.
"""

from __future__ import annotations

import re
from typing import Tuple

_BRACKET = re.compile(r"^(?P<base>.+)\[(?P<index>\d+)\]$")
_SUFFIX = re.compile(r"^(?P<base>.+?)_(?P<index>\d+)$")


def array_base(name: str) -> Tuple[str, int]:
    """Split ``name[n]`` / ``name_n`` into (base, index).

    Names without an index pattern cluster alone with index 0.
    """
    match = _BRACKET.match(name)
    if match is None:
        match = _SUFFIX.match(name)
    if match is None:
        return (name, 0)
    return (match.group("base"), int(match.group("index")))

"""Conversion of report values to plain JSON data.

Trial reports and CLI envelopes carry numpy scalars, complex numbers and
nested mappings; `jsonable` turns them into dicts, lists, bools, ints,
floats, strings and None so that `json.dumps` can write them.  A complex
value becomes {"re": ..., "im": ...}.  A numpy scalar counts as the Python
value of its .item(); numpy itself is never imported here, as a numpy
scalar can only exist once some other module has loaded it.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping


def jsonable(value):
    """`value` as plain JSON data; unknown types become their str()."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, bool):
        return bool(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, complex):
        c = complex(value)
        return {"re": c.real, "im": c.imag}
    if value is None:
        return None
    return str(value)

"""Conversion of report values to plain JSON data.

Trial reports and CLI envelopes carry numpy scalars, complex numbers and
nested mappings; `jsonable` turns them into dicts, lists, bools, ints,
floats, strings and None so that `json.dumps` can write them.  A complex
value becomes {"re": ..., "im": ...}.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np


def jsonable(value):
    """`value` as plain JSON data; unknown types become their str()."""
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return {"re": c.real, "im": c.imag}
    if value is None:
        return None
    return str(value)

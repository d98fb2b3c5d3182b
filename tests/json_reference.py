"""Reference serializer for the CLI's JSON bytes.

`to_json` here is the CLI writer as it stood when it delegated scalars
to `json.dumps`: the tests compare `fuchsian.cli.to_json` with it byte
for byte. Floats use the CLI's format (10 significant digits, zero
written as "0").
"""

import json


def _fmt_float(x: float) -> str:
    if x == 0.0:
        return "0"
    return f"{x:.10g}"


def to_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if value is None or isinstance(value, (int, str)):  # bool is an int
        return json.dumps(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {to_json(v, indent + 1)}'
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if all(isinstance(i, (int, float, str, bool)) or i is None for i in value):
            return "[" + ", ".join(to_json(i) for i in value) + "]"
        inner = ",\n".join(f"{pad}  {to_json(i, indent + 1)}" for i in value)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"unserializable value of type {type(value).__name__}")

"""Flat ``key=value`` config files for the run and generator dataclasses.

One ``key=value`` per line; blank lines and ``#`` comments are skipped.
Each key names a dataclass field and its text is cast by that field's
annotation: ``int``, ``float``, ``str`` or an ISO ``dt.date``; ``X | None``
casts as ``X``. A ``dict[str, T]`` field takes one line per entry,
``<prefix>.<name>=value``, where the prefix is the field's
``metadata["key"]`` (the field name by default). A new field needs no
parser change.

A field made by ``flag`` is also a command line flag: ``add_flags`` adds it
as text, and ``config_from`` lays the given flags over the file's lines and
casts them once, so a flag and a file line fail with the same message.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import types
import typing


def flag(default, help: str):
    """A dataclass field with ``default`` that is also a flag, as ``help`` says."""
    return dataclasses.field(default=default, metadata={"help": help})


def _cast(hint, text: str):
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    if hint is dt.date:
        return dt.date.fromisoformat(text)
    return hint(text)


def parse_fields(cls, raw: dict, error) -> dict:
    """Constructor arguments for dataclass ``cls`` from ``{key: text}``.

    An unknown key or a value its field type cannot take raises ``error``
    naming the key.
    """
    hints = typing.get_type_hints(cls)
    scalars, prefixes = {}, {}
    for f in dataclasses.fields(cls):
        if typing.get_origin(hints[f.name]) is dict:
            prefixes[f.metadata.get("key", f.name)] = f.name
        else:
            scalars[f.name] = hints[f.name]
    values: dict = {}
    for key, text in raw.items():
        prefix, _, entry = key.partition(".")
        if key not in scalars and not (entry and prefix in prefixes):
            raise error(f"unknown config key '{key}'")
        try:
            if key in scalars:
                values[key] = _cast(scalars[key], text)
            else:
                name = prefixes[prefix]
                item_hint = typing.get_args(hints[name])[1]
                values.setdefault(name, {})[entry] = _cast(item_hint, text)
        except ValueError as exc:
            raise error(f"config key '{key}': bad value '{text}'") from exc
    return values


def _read_lines(path, error) -> dict:
    """``{key: text}`` from the config file at ``path``; a file that cannot
    be read or is not UTF-8 text raises ``error`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:  # a decode error has no strerror
        raise error(f"{path}: cannot read config file ({getattr(exc, 'strerror', exc)})") from exc
    raw: dict = {}
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{path}:{line_no}: expected key=value")
        key, text = (s.strip() for s in line.split("=", 1))
        raw[key] = text
    return raw


def add_flags(parser, cls) -> None:
    """Add ``--config`` and one text flag per ``flag`` field of ``cls`` to
    the argparse ``parser``; the flag's value is that field's file text."""
    hints = typing.get_type_hints(cls)
    parser.add_argument("--config", help="flat key=value config file")
    for f in dataclasses.fields(cls):
        if "help" not in f.metadata:
            continue
        if typing.get_origin(hints[f.name]) is dict:
            parser.add_argument(f"--{f.metadata.get('key', f.name)}", dest=f.name,
                                action="append", metavar="NAME=VALUE", help=f.metadata["help"])
        else:
            parser.add_argument(f"--{f.name.replace('_', '-')}", help=f.metadata["help"])


def config_from(cls, args, error):
    """``cls`` from the ``--config`` file in the argparse namespace ``args``
    with the flags given in ``args`` over its lines (a dict field entry by
    entry), cast once by ``parse_fields``."""
    raw = _read_lines(args.config, error) if args.config else {}
    for f in dataclasses.fields(cls):
        value = getattr(args, f.name, None)
        if isinstance(value, list):  # a dict field's name=value flags
            prefix = f.metadata.get("key", f.name)
            for pair in value:  # "name" alone reads as the line "<prefix>.name="
                name, _, text = pair.partition("=")
                raw[f"{prefix}.{name.strip()}"] = text.strip()
        elif value is not None:
            raw[f.name] = value
    return cls(**parse_fields(cls, raw, error))


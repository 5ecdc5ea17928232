"""Line-delimited JSON record I/O with stable, diff-friendly serialization.

All artifacts written by the toolkit go through these helpers so that two
runs with identical inputs and seeds produce byte-identical files: keys are
sorted, no timestamps are embedded, and every artifact gets a sidecar
``<name>.meta.json`` carrying the resolved run configuration.
"""

import json
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from json.encoder import encode_basestring
from pathlib import Path

from .errors import InputError


# What get_field accepts: exact JSON types (so a bool is never a number), the words
# that end "'key' must be ...", and a further test the value must pass, if any.
Kind = namedtuple("Kind", "types must test", defaults=(None,))
TEXT = Kind((str,), "a non-empty string", str.strip)
STRING = Kind((str,), "a string")
# below 2**53 a float64 holds a count, or a sum of a few of them, exactly
COUNT = Kind((int,), "a non-negative integer below 2**53", range(2**53).__contains__)
POSITIVE_COUNT = Kind((int,), "a positive integer below 2**53", range(1, 2**53).__contains__)
NUMBER = Kind((int, float), "a finite number", lambda v: abs(v) <= sys.float_info.max)
UNIT_SCORE = Kind((int, float), "a number in [0, 1]", lambda v: 0.0 <= v <= 1.0)
STRINGS = Kind((list,), "a list of strings", lambda values: all_of(STRING, values))
_REQUIRED = object()
# the C decoder raises RecursionError, not JSONDecodeError, on arrays or objects nested this deep
_TOO_DEEP = "nested too deeply"


def all_of(kind: Kind, values) -> bool:
    """Whether every one of ``values`` is of ``kind``, as ``get_field`` judges it."""
    types, _, test = kind
    return all(type(v) in types and (test is None or test(v)) for v in values)


def get_field(record: dict, key: str, kind: Kind, source, line=None, default=_REQUIRED):
    """``record[key]``, or ``default`` when the key is absent, if it is of ``kind``; else an
    InputError naming the file (``source``, as ``iter_jsonl`` takes it), the line and the key."""
    value = record.get(key, default)
    types, must, test = kind
    if type(value) in types and (test is None or test(value)):
        return value
    where = source_name(source) + (f": line {line}" if line is not None else "")
    raise InputError(f"{where}: {key!r} must be {must}")


def source_name(source) -> str:
    """How errors name a JSONL source: its path, a file object's name, or a placeholder."""
    if isinstance(source, (str, os.PathLike)):
        return str(Path(source))
    return getattr(source, "name", "<stream>" if hasattr(source, "read") else "<lines>")


def iter_jsonl(source):
    """Yield (line_number, record) from a JSONL path, file object, or lines.

    Blank lines are skipped. Malformed JSON (nested too deeply, too) or a
    non-object line raises InputError naming the offending line; a file
    that is not UTF-8 raises InputError naming the file.
    """
    name = source_name(source)
    close = isinstance(source, (str, os.PathLike))
    lines = _input_file(source).open("r", encoding="utf-8") if close else iter(source)
    try:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{name}:{lineno}: invalid JSON record: {exc.msg}") from exc
            except RecursionError:
                raise InputError(f"{name}:{lineno}: invalid JSON record: {_TOO_DEEP}") from None
            if not isinstance(record, dict):
                raise InputError(f"{name}:{lineno}: expected a JSON object")
            yield lineno, record
    except UnicodeDecodeError as exc:
        raise InputError(f"{name}: not UTF-8 text: {exc.reason}") from exc
    finally:
        if close:
            lines.close()


def _input_file(path) -> Path:
    """``path``, once it is known to exist and not to be a directory (a pipe still reads)."""
    path = Path(path)
    try:
        found, is_dir = path.exists(), path.is_dir()
    except OSError as exc:    # such as a name too long: exists() passes only a missing file
        raise InputError(f"input file {path}: {exc.strerror}") from None
    if not found:
        raise InputError(f"input file not found: {path}")
    if is_dir:
        raise InputError(f"input is a directory, not a file: {path}")
    return path


# One compact encoder for every JSONL row: json.dumps with these arguments
# builds a new JSONEncoder on each call.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def dumps_record(record: dict) -> str:
    return _RECORD_ENCODER.encode(record)


@contextmanager
def _replacing(path):
    """A text file handle whose contents replace ``path`` only once written in full.

    Writes go to a temporary file beside ``path``, renamed over it on
    success and removed on any error, so a reader never sees a partial
    artifact and a failed write leaves the previous file as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_jsonl(path, rows) -> int:
    """Write dict rows as JSONL; returns the number of rows written."""
    n = 0
    with _replacing(path) as fh:
        for row in rows:
            fh.write(dumps_record(row) + "\n")
            n += 1
    return n


def dump_json(path, obj) -> None:
    """Write ``obj`` as indented JSON, byte for byte what
    ``json.dump(obj, fh, sort_keys=True, ensure_ascii=False, indent=2)``
    followed by a newline writes, and raising the same errors.
    """
    with _replacing(path) as fh:
        _write_indented(fh, obj)
        fh.write("\n")


_INFINITY = float("inf")
_CHUNK_PARTS = 4096   # encoded parts buffered between writes


def _float_text(value) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _scalar_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _scalar_text(value) -> str:
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _write_indented(fh, obj) -> None:
    """Stream ``obj`` as ``sort_keys=True, ensure_ascii=False, indent=2`` JSON.

    On Python 3.10 and 3.11 ``json.dump`` with an indent always runs the
    pure-Python generator encoder and calls ``fh.write`` once per token.
    This writes the same text without generators: it encodes scalars
    inline in each container's loop, recurses only into containers,
    encodes strings with the C ``encode_basestring`` and writes whenever
    ``_CHUNK_PARTS`` parts are buffered, so memory stays bounded however
    large ``obj`` is. Key sorting, number formatting and the errors raised
    (TypeError for an unserializable value or key, ValueError for a
    container inside itself) follow ``json.encoder._make_iterencode``.
    No class subclasses two of str, int, float, list, tuple and dict, so
    testing the exact types first and subclasses after picks what its
    order of ``isinstance`` tests picks.
    """
    parts = []
    append = parts.append
    writing = set()   # ids of the containers that have a container being written inside
    levels = []       # per nesting level: (first lead, item separator, "]" and "}" closers)

    def flush():
        fh.write("".join(parts))
        parts.clear()

    def container(obj, level):
        is_dict = isinstance(obj, dict)
        if not obj:
            append("{}" if is_dict else "[]")
            return
        if level == len(levels):
            indent = "\n" + "  " * (level + 1)
            outer = "\n" + "  " * level
            levels.append((indent, "," + indent, outer + "]", outer + "}"))
        lead, separator, close_list, close_dict = levels[level]
        level += 1
        nested = False
        if is_dict:
            append("{")
            items = sorted(obj.items())
        else:
            append("[")
            items = obj
        for item in items:
            if is_dict:
                key, value = item
                prefix = lead + encode_basestring(
                    key if type(key) is str else _key_text(key)) + ": "
            else:
                value = item
                prefix = lead
            lead = separator
            if len(parts) >= _CHUNK_PARTS:
                flush()
            cls = type(value)
            if cls is str:
                append(prefix + encode_basestring(value))
            elif cls is int:
                append(prefix + int.__repr__(value))
            elif cls is float:
                append(prefix + _float_text(value))
            elif isinstance(value, (list, tuple, dict)):
                if id(value) in writing:
                    raise ValueError("Circular reference detected")
                if not nested:
                    writing.add(id(obj))
                    nested = True
                append(prefix)
                container(value, level)
            else:
                append(prefix + _scalar_text(value))
        append(close_dict if is_dict else close_list)
        if nested:
            writing.discard(id(obj))

    if isinstance(obj, (list, tuple, dict)):
        container(obj, 0)
    else:
        append(_scalar_text(obj))
    flush()


def write_text(path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def load_json(path):
    path = _input_file(path)
    with path.open("r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc.msg}") from exc
        except RecursionError:
            raise InputError(f"{path}: invalid JSON: {_TOO_DEEP}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def write_meta(artifact_path, config: dict) -> Path:
    """Write the provenance sidecar for an artifact file."""
    artifact_path = Path(artifact_path)
    meta_path = artifact_path.with_name(artifact_path.name + ".meta.json")
    dump_json(meta_path, {"artifact": artifact_path.name, "config": config})
    return meta_path

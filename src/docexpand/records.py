"""Line-delimited JSON record I/O with stable, diff-friendly serialization.

All artifacts written by the toolkit go through these helpers so that two
runs with identical inputs and seeds produce byte-identical files: keys are
sorted, no timestamps are embedded, and every artifact gets a sidecar
``<name>.meta.json`` carrying the resolved run configuration.
"""

import json
import os
import re
import sys
from collections import namedtuple
from contextlib import contextmanager
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring
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
# json.loads(line) for a stripped line is this scanner's value when it spans the whole line
_scan_once = json.JSONDecoder().scan_once
# one escape of a JSON text json decoded: a surrogate pair, which json joins into one character,
# a surrogate escape left alone (group 1), or any other escape
_ESCAPE = re.compile(r"\\(?:u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
                     r"|(u[dD][89a-fA-F][0-9a-fA-F]{2})|.)")


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

    Blank lines are skipped. Malformed JSON (nested too deeply, too), a
    lone surrogate escape or a non-object line raises InputError naming
    the offending line; a file that is not UTF-8 raises InputError naming
    the file.
    """
    name = source_name(source)
    close = isinstance(source, (str, os.PathLike))
    lines = _open_input(source) if close else iter(source)
    try:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = None
            if end != len(line):
                # json.loads raises what the scanner met, or what follows the value
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise InputError(f"{name}:{lineno}: invalid JSON record: "
                                     f"{_json_error(exc)}") from exc
            # a backslash starts every escape, and one character is found far faster than "\\u"
            if "\\" in line:
                _refuse_lone_surrogate(line, name, lineno)
            if type(record) is not dict:
                raise InputError(f"{name}:{lineno}: expected a JSON object")
            yield lineno, record
    except UnicodeDecodeError as exc:
        raise InputError(f"{name}: not UTF-8 text: {exc.reason}") from exc
    finally:
        if close:
            lines.close()


def _refuse_lone_surrogate(text: str, name, lineno: int = 1) -> None:
    """Raise InputError at the first ``\\u`` escape of the decoded JSON ``text`` that json
    decodes to a lone surrogate, which is not Unicode text and which no UTF-8 artifact can
    hold. Inputs are read as strict UTF-8, so no other character of a decoded string is one."""
    for match in _ESCAPE.finditer(text):
        if match[1]:
            line = lineno + text.count("\n", 0, match.start())
            raise InputError(f"{name}:{line}: \\{match[1]} is a lone surrogate, not Unicode text")


def _json_error(exc: Exception) -> str:
    """Why json could not decode a document, from the error it raised."""
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg
    # the C decoder raises RecursionError, not JSONDecodeError, on arrays or objects nested
    # too deep, and ValueError on an integer longer than sys.get_int_max_str_digits() digits
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    return "an integer has too many digits"


def _open_input(path):
    """``path`` opened as UTF-8 text, unless it is missing or a directory (a pipe still reads)."""
    path = Path(path)
    try:
        if path.is_dir():
            raise InputError(f"input is a directory, not a file: {path}")
        if path.exists():
            return path.open("r", encoding="utf-8")
    except OSError as exc:    # such as a name too long, a socket, or a file one may not read
        raise InputError(f"input file {path}: {exc.strerror}") from None
    raise InputError(f"input file not found: {path}")


# One compact encoder for every JSONL row: json.dumps with these arguments
# builds a new JSONEncoder on each call, and JSONEncoder.encode a new C
# encoder. This is the C encoder encode builds, built once, without the
# markers that detect a container inside itself: no row the program writes
# holds one.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)
_encode_row = c_make_encoder(
    None, _RECORD_ENCODER.default, encode_basestring, None, _RECORD_ENCODER.key_separator,
    _RECORD_ENCODER.item_separator, True, False, True)


def dumps_record(record: dict) -> str:
    """``json.dumps(record, sort_keys=True, ensure_ascii=False)`` for a row holding no cycle."""
    return "".join(_encode_row(record, 0))


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
    """Write ``obj``, a dict or list, as indented JSON: byte for byte what
    ``json.dump(obj, fh, sort_keys=True, ensure_ascii=False, indent=2)``
    followed by a newline writes, when ``obj`` holds no cycle and every
    dict in it that holds a container has ``str`` keys.
    """
    with _replacing(path) as fh:
        _write_indented(fh, obj)
        fh.write("\n")


_CHUNK_PARTS = 4096   # encoded parts buffered between writes
_CONTAINERS = (list, tuple, dict)


def _write_indented(fh, obj) -> None:
    """Stream the container ``obj`` as ``sort_keys=True, ensure_ascii=False, indent=2`` JSON.

    On Python 3.10 and 3.11 ``json.dump`` with an indent always runs the
    pure-Python generator encoder and calls ``fh.write`` once per token.
    This writes the same text without generators: a container that holds
    no container, an empty one too, is one call of a C encoder whose item
    separator is the level's newline and indent; any other container
    writes each of its ``str`` keys, and each of its values that is not a
    container with that same encoder, and recurses only into containers.
    The text is written whenever ``_CHUNK_PARTS`` parts are buffered, so
    memory stays bounded by that many parts. Key sorting, number
    formatting and the TypeError for an unserializable value follow
    ``json.encoder._make_iterencode``. A container inside itself recurses
    until RecursionError.
    """
    parts = []
    append = parts.append
    # per nesting level: first lead, item separator, "]" and "}" closers, and the C
    # encoder of a container holding no container
    levels = []

    def flush():
        fh.write("".join(parts))
        parts.clear()

    def container(obj, level):
        while len(levels) < level + 2:
            indent = "\n" + "  " * (len(levels) + 1)
            outer = "\n" + "  " * len(levels)
            levels.append((indent, "," + indent, outer + "]", outer + "}", c_make_encoder(
                None, _RECORD_ENCODER.default, encode_basestring, None, ": ", "," + indent,
                True, False, True)))
        lead, separator, close_list, close_dict, encode_flat = levels[level]
        is_dict = isinstance(obj, dict)
        if not any(map(isinstance, obj.values() if is_dict else obj, repeat(_CONTAINERS))):
            text = "".join(encode_flat(obj, 0))
            if obj:    # "{...}" or "[...]" without the newlines
                text = text[0] + lead + text[1:-1] + (close_dict if is_dict else close_list)
            append(text)
            return
        level += 1
        # a posting, [str, int], is written whole with the next level's strings
        pair_lead, pair_separator, pair_close, _, _ = levels[level]
        pair_lead = "[" + pair_lead
        if is_dict:
            append("{")
            items = sorted(obj.items())
        else:
            append("[")
            items = obj
        for item in items:
            if is_dict:
                key, value = item
                prefix = lead + encode_basestring(key) + ": "
            else:
                value = item
                prefix = lead
            lead = separator
            if len(parts) >= _CHUNK_PARTS:
                flush()
            cls = type(value)
            if ((cls is list or cls is tuple) and len(value) == 2
                    and type(value[0]) is str and type(value[1]) is int):
                append(prefix + pair_lead + encode_basestring(value[0]) + pair_separator
                       + int.__repr__(value[1]) + pair_close)
            elif isinstance(value, _CONTAINERS):
                append(prefix)
                container(value, level)
            else:
                append(prefix + "".join(encode_flat(value, 0)))
        append(close_dict if is_dict else close_list)

    container(obj, 0)
    flush()


def write_text(path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def load_json(path):
    path = Path(path)
    with _open_input(path) as fh:
        try:
            text = fh.read()
            value = json.loads(text)
        except UnicodeDecodeError as exc:    # a ValueError, so caught first
            raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from exc
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path}: invalid JSON: {_json_error(exc)}") from exc
    if "\\" in text:
        _refuse_lone_surrogate(text, path)
    return value


META_SUFFIX = ".meta.json"


def meta_path(artifact_path) -> Path:
    """The path of an artifact file's provenance sidecar."""
    return Path(f"{Path(artifact_path)}{META_SUFFIX}")    # Path() drops a trailing slash


def write_meta(artifact_path, config: dict) -> None:
    """Write the provenance sidecar for an artifact file."""
    dump_json(meta_path(artifact_path), {"artifact": Path(artifact_path).name, "config": config})

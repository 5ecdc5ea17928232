import pytest

from docexpand.records import dump_json, write_jsonl, write_text


def failing_rows():
    yield {"id": "p1"}
    raise RuntimeError("row source failed")


@pytest.mark.parametrize("write, bad_content", [
    (write_jsonl, failing_rows()),
    (dump_json, {"id": object()}),       # not JSON serializable, fails mid-dump
    (write_text, 42),                    # not text
], ids=["write_jsonl", "dump_json", "write_text"])
def test_failed_write_keeps_previous_file(tmp_path, write, bad_content):
    path = tmp_path / "artifact"
    path.write_bytes(b'{"previous": true}\n')
    with pytest.raises((RuntimeError, TypeError)):
        write(path, bad_content)
    assert path.read_bytes() == b'{"previous": true}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_written_bytes(tmp_path):
    rows = tmp_path / "new" / "dir" / "rows.jsonl"
    assert write_jsonl(rows, iter([{"b": 1, "a": "é"}, {}])) == 2
    assert rows.read_bytes() == '{"a": "é", "b": 1}\n{}\n'.encode("utf-8")
    dump_json(tmp_path / "obj.json", {"z": [1, 2], "a": None})
    assert (tmp_path / "obj.json").read_text(encoding="utf-8") == (
        '{\n  "a": null,\n  "z": [\n    1,\n    2\n  ]\n}\n')
    write_text(rows, "replaced\n")
    assert rows.read_text(encoding="utf-8") == "replaced\n"
    assert sorted(p.name for p in rows.parent.iterdir()) == ["rows.jsonl"]
